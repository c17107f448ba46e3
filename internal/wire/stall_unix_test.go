//go:build unix

package wire

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/ps"
)

// TestStalledRangeReaderBlocksNoOne: one connection asks for a 2 M-wide
// row and does not read the answer, so the server's write of it stalls
// with the row on lease. Another connection's push, step and sparse pull on
// the same row still finish within a second, since the server holds no lock
// across a socket write, and the stalled answer, once read, is the row as it
// was before the push.
func TestStalledRangeReaderBlocksNoOne(t *testing.T) {
	const width = 1 << 21
	srv, addr := startServer(t)
	c := NewClient([]string{addr}, wideRetry())
	t.Cleanup(c.Close)
	if err := c.CreateShard(0, 1, 1, 0, width); err != nil {
		t.Fatal(err)
	}
	fillRow(srv, 1, 0)
	srv.mu.Lock()
	before := slices.Clone(values(srv.mats[1], 0))
	srv.mu.Unlock()

	// A small receive buffer, set before the connection opens its window,
	// so the 16 MB answer cannot fit in the two sockets' buffers and the
	// server's write of it has to wait.
	d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		var err error
		if cerr := c.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 16<<10)
		}); cerr != nil {
			return cerr
		}
		return err
	}}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteFrame(conn, Frame{Op: OpPullRange, Payload: AppendPullRangeReq(nil, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	var l *ps.Lease
	for deadline := time.Now().Add(5 * time.Second); l == nil; l = heldLease(srv, 1, 0) {
		if time.Now().After(deadline) {
			t.Fatal("no lease on the row within 5 s: the pull was not handled, or the server's mutex stayed held")
		}
		time.Sleep(time.Millisecond)
	}

	cols := []int{3, width - 1}
	var got []float64
	done := make(chan error, 1)
	go func() {
		if err := c.PushAdd(0, 1, 0, cols, []float64{1, 2}); err != nil {
			done <- err
			return
		}
		if err := c.Fused(0, 1, []FusedOp{{Kind: FScale, Row: 0, Scale: 0.5}}); err != nil {
			done <- err
			return
		}
		done <- c.PullSparseInto(0, 1, 0, cols, &got)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{(before[3] + 1) * 0.5, (before[width-1] + 2) * 0.5}; !equalFloats(got, want) {
			t.Fatalf("the other connection read %v after its push and step, want %v", got, want)
		}
	case <-time.After(time.Second):
		t.Fatal("push, step and pull on another connection still waiting after 1 s behind a stalled reader")
	}
	if l.Load() == 0 {
		t.Fatal("the stalled write finished before the other connection's calls: the sockets buffered the whole row, so nothing stalled")
	}

	resp, err := readRawResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if want := rawResponse(0, 8+8*width, appendPullRangeResp(nil, 0, before)); !bytes.Equal(resp, want) {
		t.Fatal("the stalled answer is not the row as it was before the push")
	}
}

// heldLease returns the lease on row r of matrix mat on srv if a pull is
// still writing the row, or nil. It only tries the server's mutex, so a
// server that holds it across a stalled write fails the test instead of
// hanging it.
func heldLease(srv *Server, mat uint32, r int) *ps.Lease {
	if !srv.mu.TryLock() {
		return nil
	}
	defer srv.mu.Unlock()
	if l := srv.mats[mat].Form(r).Lent; l != nil && l.Load() > 0 {
		return l
	}
	return nil
}
