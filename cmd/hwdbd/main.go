// Command hwdbd runs a standalone Homework Database server over its UDP
// RPC, with the four standard tables created (Flows, Links, Leases and
// FlowPerf).
//
//	hwdbd [-addr 127.0.0.1:7654] [-ring 65536]
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"

	"repro/internal/clock"
	"repro/internal/hwdb"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "UDP listen address")
	ring := flag.Int("ring", hwdb.DefaultRingSize, "per-table ring capacity")
	flag.Parse()

	db := hwdb.NewHomework(clock.Real{}, *ring)
	srv := hwdb.NewServer(db)
	if err := srv.Serve(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("hwdb serving on %s (tables: Flows, Links, Leases, FlowPerf; ring %d)", srv.Addr(), *ring)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	_ = srv.Close()
}
