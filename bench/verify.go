package main

import (
	"fmt"
	"time"

	"repro/internal/history"
)

// tailPerClient is the fixed length of the correctness epilogue's workload
// tail: 2,000 transactions over the two clients.
const tailPerClient = 1000

// verdict is the outcome of the untimed correctness epilogue.
type verdict struct {
	violations []string
	// eventsPerTx is the history events one tail transaction produced.
	eventsPerTx float64
	// recover is the mean per-site restart time from the WAL.
	recover time.Duration
}

func (v *verdict) failf(format string, args ...any) {
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

// verify checks that what the program produced is correct:
//
//  1. a fixed tail of the same workload, recorded from clean history
//     recorders, must be serializable (history.CheckSerializable over the
//     merged per-site histories);
//  2. every item must equal its initial value plus the committed blind-add
//     deltas of the whole run (exact sums; items never added to stay put);
//  3. every site is restarted from its WAL alone, and every item must read
//     back equal to its value before the restart. This tests that replay is
//     complete, not that fsync is honest: the restart keeps the operating
//     system's cache.
func (d *driver) verify(perClient int) verdict {
	var v verdict

	for _, st := range d.c.sites {
		st.HistoryRecorder().Reset()
	}
	tail := d.run(phaseOpts{perClient: perClient, keepTx: true})
	if tail.failed > 0 {
		v.failf("%d of %d tail transactions never committed", tail.failed, tail.attempted())
	}
	var events []history.Event
	for _, st := range d.c.sites {
		events = append(events, st.History()...)
	}
	v.eventsPerTx = ratio(float64(len(events)), float64(tail.attempted()))
	if err := history.CheckSerializable(events, tail.committedTx); err != nil {
		v.failf("tail of %d transactions: %v", tail.attempted(), err)
	}

	before, err := d.readAll()
	if err != nil {
		v.failf("%v", err)
		return v
	}
	if d.c.w.addFraction > 0 {
		for _, item := range d.c.w.itemIDs() {
			if want := initialValue + d.sums[item]; before[item] != want {
				v.failf("exact sum: %s = %d, want initial %d + committed deltas %d", item, before[item], initialValue, d.sums[item])
			}
		}
	}

	if v.recover, err = d.c.restart(); err != nil {
		v.failf("restart: %v", err)
		return v
	}
	after, err := d.readAll()
	if err != nil {
		v.failf("after restart: %v", err)
		return v
	}
	for item, want := range before {
		if got, ok := after[item]; !ok || got != want {
			v.failf("restart lost %s: %d before, %d after", item, want, got)
		}
	}
	return v
}
