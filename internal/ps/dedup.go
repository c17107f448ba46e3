package ps

// The exactly-once protocol of both transports (rpc.go, internal/wire): a
// sender numbers mutating requests from a Ledger and sends its watermark on
// every request; a receiver's AppliedSet replays duplicates and retires what
// a watermark has passed, so it stays the size of the in-flight window. IDs
// and watermarks are session<<32 | sequence (counted from 1): the simulated
// master is session 0 and every wire.Client draws its own, so senders sharing
// a server never collide and a watermark retires only its own session.

const seqMask = 1<<32 - 1

// Ledger is the sender side: it issues request IDs and keeps the
// acknowledgement watermark, the highest ID at or below which every request
// is settled and will never be resent. Not safe for concurrent use.
type Ledger struct {
	session, seq, acked uint64 // session<<32; last sequence issued; watermark
	inFlight            map[uint64]struct{}
}

// NewLedger returns an empty ledger for the given session.
func NewLedger(session uint32) Ledger {
	return Ledger{session: uint64(session) << 32, inFlight: map[uint64]struct{}{}}
}

// Next issues the next request ID and marks it in flight.
func (l *Ledger) Next() uint64 {
	l.seq++
	l.inFlight[l.seq] = struct{}{}
	return l.session | l.seq
}

// Settle marks id as never to be resent (its call returned, whatever the
// outcome) and advances the watermark past every settled ID.
func (l *Ledger) Settle(id uint64) {
	delete(l.inFlight, id&seqMask)
	for l.acked < l.seq {
		if _, ok := l.inFlight[l.acked+1]; ok {
			break
		}
		l.acked++
	}
}

// Watermark returns the acknowledgement watermark to piggyback on a request.
func (l *Ledger) Watermark() uint64 { return l.session | l.acked }

// Settled reports whether every ID ever issued has settled.
func (l *Ledger) Settled() bool { return l.acked == l.seq }

// AppliedSet is the receiver side: the mutating request IDs applied so far,
// each with the response to replay on a duplicate. The zero value is empty
// and ready to use. Not safe for concurrent use.
type AppliedSet struct {
	resp      map[uint64][]byte // ID → cached response
	retiredTo map[uint64]uint64 // session<<32 → last sequence retired against
}

// Lookup returns the cached response of an applied request.
func (a *AppliedSet) Lookup(id uint64) ([]byte, bool) {
	resp, ok := a.resp[id]
	return resp, ok
}

// Record marks id applied with the response to replay, which it retains.
func (a *AppliedSet) Record(id uint64, resp []byte) {
	if a.resp == nil {
		a.resp = map[uint64][]byte{}
	}
	a.resp[id] = resp
}

// Retire drops the watermark's session's entries at or below it and returns
// how many it dropped. A watermark that has not advanced past the session's
// last one changes nothing.
func (a *AppliedSet) Retire(watermark uint64) int {
	session, to := watermark&^seqMask, watermark&seqMask
	if to <= a.retiredTo[session] {
		return 0
	}
	if a.retiredTo == nil {
		a.retiredTo = map[uint64]uint64{}
	}
	a.retiredTo[session] = to
	n := 0
	for id := range a.resp {
		if id&^seqMask == session && id <= watermark {
			delete(a.resp, id)
			n++
		}
	}
	return n
}

// Len returns the number of entries held.
func (a *AppliedSet) Len() int { return len(a.resp) }
