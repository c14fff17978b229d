// Classroom demonstrates the paper's two suggested term projects (§5) side
// by side with the stock protocols:
//
//  1. replacing two-phase commit with three-phase commit: crash the
//     coordinator after participants voted and watch 2PC leave blocked
//     "orphan" transactions until the coordinator returns, while 3PC's
//     cooperative termination resolves them without it;
//  2. replacing basic timestamp ordering with multi-version TSO: a
//     late-timestamped read that basic TSO rejects is served from an older
//     version under MVTSO.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/storage"
)

func main() {
	fmt.Println("== Term project 1: 2PC vs 3PC under coordinator failure ==")
	for _, acpName := range []string{"2pc", "3pc"} {
		orphansDuring, drained := commitProtocolDemo(acpName)
		fmt.Printf("%s: orphans while coordinator down = %d; drained without coordinator = %v\n",
			acpName, orphansDuring, drained)
	}
	fmt.Println("expected: 2PC blocks (orphans stay until the coordinator recovers);")
	fmt.Println("3PC terminates cooperatively and drains them with the coordinator still down.")

	fmt.Println("\n== Term project 2: basic TSO vs multi-version TSO ==")
	tsoDemo()
}

// commitProtocolDemo runs transactions while the coordinator site crashes
// mid-commit, then reports how many participants stayed in-doubt and
// whether they resolved while the coordinator was still down.
func commitProtocolDemo(acpName string) (orphans int, drainedWithoutCoordinator bool) {
	inst, err := core.New(core.Options{
		Sites:     []model.SiteID{"S1", "S2", "S3"},
		Items:     map[model.ItemID]int64{"x": 0, "y": 0},
		Protocols: schema.Protocols{RCP: "qc", CCP: "2pl", ACP: acpName},
		Timeouts: schema.Timeouts{
			Op: 500 * time.Millisecond, Vote: 500 * time.Millisecond,
			Ack: 300 * time.Millisecond, Lock: 300 * time.Millisecond,
			OrphanResolve: 100 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Close()
	ctx := context.Background()

	// Fire a burst of writes homed at S1 and crash S1 while they are in
	// the middle of commitment.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 12; i++ {
			inst.Submit(ctx, "S1", []model.Op{model.Write("x", int64(i)), model.Write("y", int64(i))})
		}
	}()
	time.Sleep(3 * time.Millisecond)
	inst.Injector.Crash("S1")
	<-done

	// Give the orphan resolvers one beat, then measure while S1 is down.
	time.Sleep(250 * time.Millisecond)
	orphans = inst.Orphans()
	drainedWithoutCoordinator = inst.WaitOrphansDrained(2 * time.Second)

	// Recover the coordinator: 2PC's orphans must now drain too.
	if err := inst.Injector.Recover("S1"); err != nil {
		log.Fatal(err)
	}
	if !inst.WaitOrphansDrained(5 * time.Second) {
		log.Fatalf("%s: orphans survived coordinator recovery", acpName)
	}
	return orphans, drainedWithoutCoordinator
}

// tsoDemo shows the observable difference between the two TSO variants
// using the CC managers directly (the classroom exercise works at this
// level before wiring a new protocol into the full stack).
func tsoDemo() {
	mk := func(name string) cc.Manager {
		st := storage.New()
		st.Init(map[model.ItemID]int64{"x": 100})
		m, err := cc.New(name, st, cc.Options{LockTimeout: time.Second})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	ts := func(t uint64) model.Timestamp { return model.Timestamp{Time: t, Site: "S"} }
	tx := func(n uint64) model.TxID { return model.TxID{Site: "S", Seq: n} }
	ctx := context.Background()

	for _, name := range []string{"tso", "mvtso"} {
		m := mk(name)
		// A writer at timestamp 10 commits x=200.
		if _, _, err := m.Admit(ctx, tx(1), ts(10), model.Write("x", 200), true); err != nil {
			log.Fatal(err)
		}
		m.Commit(tx(1), []model.WriteRecord{{Item: "x", Value: 200, Version: 1}})
		// A straggler reader at timestamp 5 arrives late.
		v, _, err := m.Admit(ctx, tx(2), ts(5), model.Read("x"), true)
		if err != nil {
			fmt.Printf("%-6s late read at ts=5: REJECTED (%v)\n", name, err)
		} else {
			fmt.Printf("%-6s late read at ts=5: served old version x=%d\n", name, v)
		}
		m.Abort(tx(2))
	}
	fmt.Println("expected: tso rejects the late read; mvtso serves x=100 from the version chain.")
}
