// Concurrentprobes: two estimators probing the same path through one
// receiver at the same time — each sender in its own receiver session,
// so their streams never collide. This is the paper's intrusiveness
// pitfall made tangible: every probe stream one estimator sends is
// cross traffic the other one measures, so two concurrent estimates of
// the same loopback path each come out lower than a solo run.
//
//	go run ./examples/concurrentprobes
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"abw"
)

func main() {
	recv, err := abw.ListenReceiver("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer recv.Close()
	fmt.Printf("receiver on %s\n", recv.Addr())

	// One transport per estimator: a Transport is single-stream, so
	// concurrency is dial-N-sessions, not share-one-socket.
	const n = 2
	trs := make([]*abw.LiveTransport, n)
	for i := range trs {
		if trs[i], err = abw.DialReceiver(recv.Addr()); err != nil {
			log.Fatal(err)
		}
		defer trs[i].Close()
	}

	reports := make([]*abw.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(i int) { // i passed explicitly: go 1.21 shares loop variables
			defer wg.Done()
			reports[i], errs[i] = abw.Estimate(context.Background(), "pathload", abw.Params{
				RateLo:    50 * abw.Mbps,
				RateHi:    4 * abw.Gbps,
				StreamLen: 50,
				Repeat:    2,
				MaxRounds: 6,
				Rand:      abw.NewRand(uint64(i) + 1),
			}, trs[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	for i, rep := range reports {
		fmt.Printf("estimator %d: %v\n", i, rep)
	}
	fmt.Printf("receiver saw: %v\n", recv.Stats())
	fmt.Println("(each estimator's probes are the other's cross traffic — running both")
	fmt.Println(" at once depresses both estimates relative to a solo run: the paper's")
	fmt.Println(" intrusiveness pitfall, measured over real sockets)")
}
