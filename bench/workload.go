package main

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/wlg"
)

// Fixed shape of every workload: a 3-site cluster driven closed-loop by two
// clients (the reference box has two cores; more clients than cores measures
// the Go scheduler, not Rainbow), four operations per transaction.
const (
	numSites     = 3
	numClients   = 2
	opsPerTx     = 4
	initialValue = 100

	// lockTimeoutMS pins Timeouts.Lock in the harness so a change of the
	// system default cannot masquerade as a speed-up. It is 10 ms, not the
	// 500 ms default, because the benchmark must repeat. With two clients a
	// timeout-resolved distributed deadlock stalls the whole run, and about
	// 1% of zipf.rw transactions meet one. At 500 ms a 10 s window then
	// swings 230-450 tx/s from seed to seed and its p99 flips between 6 ms
	// and 501 ms; at 25 ms the p99 still flips (10 ms or 27 ms) because the
	// stalled 1% sits beyond a gap in the latency distribution. At 10 ms —
	// over two scheduler ticks, 30 times the median transaction — the
	// stalls join the tail the restart backoff already makes, and tx/s, p50
	// and p99 (= the timeout) all repeat.
	lockTimeoutMS = 10

	// maxAttempts bounds the resubmissions of one client transaction after
	// CCP/ACP aborts; a transaction that never commits counts as failed.
	maxAttempts = 10
)

// workload is one traffic mix. The names are final: later issues cite them;
// BENCHMARK.json and README.md record why each was chosen.
type workload struct {
	name  string
	items int
	// readFraction is the per-operation read probability (wlg treats 0 as
	// "unset", so a mix without reads says -1).
	readFraction float64
	// addFraction is the probability that a non-read is a blind add.
	addFraction float64
	// zipf > 1 skews item access; 0 is uniform.
	zipf float64
	// durable puts every site on a segmented file WAL with Sync: true.
	durable bool
}

var workloads = []workload{
	{name: "uniform.ro", items: 16384, readFraction: 1},
	{name: "uniform.rw.durable", items: 16384, readFraction: 0.5, durable: true},
	{name: "zipf.rw", items: 256, readFraction: 0.5, zipf: 1.1},
	{name: "hot.add", items: 256, readFraction: -1, addFraction: 1, zipf: 1.4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func siteIDs() []model.SiteID {
	ids := make([]model.SiteID, numSites)
	for i := range ids {
		ids[i] = model.SiteID(fmt.Sprintf("S%d", i+1))
	}
	return ids
}

// itemIDs names the database, in sorted order (wlg sorts its item list in
// place; handing it a sorted slice keeps that a no-op).
func (w workload) itemIDs() []model.ItemID {
	ids := make([]model.ItemID, w.items)
	for i := range ids {
		ids[i] = model.ItemID(fmt.Sprintf("i%05d", i))
	}
	return ids
}

// generators builds one generator per client, each with its own stream
// derived from seed, so no shared generator mutex sits in the timed path and
// the same seed always yields the same per-client operation streams.
func (w workload) generators(seed int64) []*wlg.Generator {
	items := w.itemIDs()
	gens := make([]*wlg.Generator, numClients)
	for c := range gens {
		gens[c] = wlg.New(wlg.Profile{
			Sites:        siteIDs(),
			Items:        items,
			OpsPerTx:     opsPerTx,
			ReadFraction: w.readFraction,
			AddFraction:  w.addFraction,
			Zipf:         w.zipf,
			// wlg maps seed 0 to its default; +1 keeps every stream distinct.
			Seed: seed*numClients + int64(c) + 1,
		})
	}
	return gens
}
