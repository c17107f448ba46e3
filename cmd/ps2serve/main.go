// ps2serve runs one wire-protocol parameter server: a real TCP process
// holding matrix shards for multi-process training runs. Start one per
// server slot, then point cmd/ps2worker's -servers flag at the printed
// addresses.
//
//	ps2serve -addr 127.0.0.1:7070
//
// The bound address is printed on stdout (useful with -addr :0 to pick a
// free port). SIGINT/SIGTERM shut the server down cleanly; its last line
// counts what it served and, where /proc/self/status has it, its peak
// resident set (VmHWM).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "host:port to listen on (:0 picks a free port)")
	flag.Parse()

	srv := wire.NewServer()
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ps2serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ps2serve listening on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Close()
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "ps2serve: %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Printf("ps2serve served %d requests (%d dedup replays), %.2f MB in / %.2f MB out%s\n",
		st.Requests, st.DedupHits, float64(st.BytesIn)/1e6, float64(st.BytesOut)/1e6, obs.PeakRSS())
}
