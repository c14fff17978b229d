package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/wlg"
)

// driver feeds one cluster from the per-client generators. Each client is a
// closed loop: it submits its next transaction only after the previous one
// has its outcome, as Rainbow's WLG clients do.
type driver struct {
	c    *cluster
	gens []*wlg.Generator
	// next counts each client's transactions, for the round-robin home.
	next [numClients]int
	// jitter is each client's source of restart backoff.
	jitter []*rand.Rand
	// sums accumulates the committed blind-add deltas per item since the
	// cluster started — the reference for the exact-sum audit.
	sums map[model.ItemID]int64
}

func newDriver(c *cluster, seed int64) *driver {
	d := &driver{c: c, gens: c.w.generators(seed), sums: make(map[model.ItemID]int64)}
	for i := range d.gens {
		d.jitter = append(d.jitter, rand.New(rand.NewSource(seed*numClients+int64(i))))
	}
	return d
}

// execSpan is the harness span around one site.Execute call.
type execSpan struct {
	tx         model.TxID
	start, end time.Time
}

// sample is one client transaction: when it had its final outcome, and its
// latency from the first submit to that outcome, restarts and their backoff
// included.
type sample struct {
	end       time.Time
	lat       time.Duration
	committed bool
}

// phase is what one phase of client activity produced.
type phase struct {
	start, end time.Time
	// samples holds one entry per client transaction.
	samples []sample
	// attempted = committed + failed client transactions; failed ones never
	// committed within maxAttempts.
	committed, failed int
	// executes counts site.Execute calls, ccpAborts and otherAborts the ones
	// that came back aborted, by cause.
	executes, ccpAborts, otherAborts int
	// committedTx names the committed attempts (kept only on request).
	committedTx map[model.TxID]bool
	// spans holds one span per Execute call (kept only on request).
	spans []execSpan
	// sums holds the committed blind-add deltas per item.
	sums map[model.ItemID]int64
}

func (p *phase) attempted() int { return p.committed + p.failed }

// phaseOpts selects how a phase ends and what it keeps.
type phaseOpts struct {
	// perClient > 0 ends each client after that many transactions;
	// otherwise clients run until window has elapsed.
	perClient int
	window    time.Duration
	// sequential runs the clients one after another (the warm-up: no
	// contention, so set-up time holds no lock-timeout stalls).
	sequential bool
	keepTx     bool
	keepSpans  bool
}

func (d *driver) run(o phaseOpts) phase {
	parts := make([]phase, numClients)
	start := time.Now()
	deadline := start.Add(o.window)
	if o.sequential {
		for c := range parts {
			parts[c] = d.client(c, o, deadline)
		}
	} else {
		var wg sync.WaitGroup
		for c := range parts {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				parts[c] = d.client(c, o, deadline)
			}(c)
		}
		wg.Wait()
	}
	out := phase{start: start, end: time.Now(), committedTx: make(map[model.TxID]bool)}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.committed += p.committed
		out.failed += p.failed
		out.executes += p.executes
		out.ccpAborts += p.ccpAborts
		out.otherAborts += p.otherAborts
		out.spans = append(out.spans, p.spans...)
		for tx := range p.committedTx {
			out.committedTx[tx] = true
		}
		for item, delta := range p.sums {
			d.sums[item] += delta
		}
	}
	return out
}

// backoff is the WLG's restart policy (wlg.Profile.Retries): the k-th
// restart of an aborted transaction waits a jittered 1..10·2^k ms, capped at
// 320 ms. Without the jitter two clients whose transactions deadlocked time
// out together, resubmit together and deadlock again; without any wait a
// restarted upgrader starves the transaction it lost to.
func backoff(rng *rand.Rand, k int) time.Duration {
	return time.Duration(rng.Intn(10<<min(k, 5))+1) * time.Millisecond
}

// client is one closed loop. A transaction aborted by the CCP or ACP is
// restarted with the same operations after backoff; its latency runs from
// the first submit to the final outcome, waits included.
func (d *driver) client(c int, o phaseOpts, deadline time.Time) phase {
	p := phase{committedTx: make(map[model.TxID]bool), sums: make(map[model.ItemID]int64)}
	ctx := context.Background()
	for i := 0; ; i++ {
		if o.perClient > 0 {
			if i >= o.perClient {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		ops := d.gens[c].NextTx()
		home := d.c.sites[(d.next[c]*numClients+c)%numSites]
		d.next[c]++

		var out model.Outcome
		submit := time.Now()
		done := submit
		for attempt := 0; attempt < maxAttempts; attempt++ {
			began := done
			if attempt > 0 {
				time.Sleep(backoff(d.jitter[c], attempt-1))
				began = time.Now()
			}
			out = home.Execute(ctx, ops)
			done = time.Now()
			p.executes++
			if o.keepSpans {
				p.spans = append(p.spans, execSpan{tx: out.Tx, start: began, end: done})
			}
			if out.Committed {
				break
			}
			if out.Cause == model.AbortCC {
				p.ccpAborts++
			} else {
				p.otherAborts++
				if out.Cause != model.AbortACP {
					break // a client or replication failure will not heal by retrying
				}
			}
		}
		p.samples = append(p.samples, sample{end: done, lat: done.Sub(submit), committed: out.Committed})
		if !out.Committed {
			p.failed++
			continue
		}
		p.committed++
		if o.keepTx {
			p.committedTx[out.Tx] = true
		}
		for _, op := range ops {
			if op.Kind == model.OpAdd {
				p.sums[op.Item] += op.Value
			}
		}
	}
	return p
}

// readAll reads every item through ordinary read transactions of 64 reads,
// each site serving every third batch as home, the sites in parallel. The
// cluster must be otherwise idle. An aborted batch is read again: the remote
// sites' CC janitor presumes a transaction aborted once it is 10 lock
// timeouts old, which a read-back on a slow box (the race detector) reaches.
func (d *driver) readAll() (map[model.ItemID]int64, error) {
	const perTx = 64
	items := d.c.w.itemIDs()
	parts := make([]map[model.ItemID]int64, numSites)
	errs := make([]error, numSites)
	var wg sync.WaitGroup
	for s := range parts {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			parts[s] = make(map[model.ItemID]int64)
			for i := s * perTx; i < len(items); i += numSites * perTx {
				batch := items[i:min(i+perTx, len(items))]
				ops := make([]model.Op, len(batch))
				for j, item := range batch {
					ops[j] = model.Read(item)
				}
				var out model.Outcome
				for attempt := 0; attempt < maxAttempts && !out.Committed; attempt++ {
					out = d.c.sites[s].Execute(context.Background(), ops)
				}
				if !out.Committed {
					errs[s] = fmt.Errorf("read-back of %s..%s at %s aborted: %s", batch[0], batch[len(batch)-1], d.c.sites[s].ID(), out.Cause)
					return
				}
				for item, v := range out.Reads {
					parts[s][item] = v
				}
			}
		}(s)
	}
	wg.Wait()
	values := make(map[model.ItemID]int64, len(items))
	for s, part := range parts {
		if errs[s] != nil {
			return nil, errs[s]
		}
		for item, v := range part {
			values[item] = v
		}
	}
	return values, nil
}

// latSummary summarises a latency sample in milliseconds. A percentile is
// trusted only with at least ten samples beyond it.
type latSummary struct {
	n                    int
	mean, p50, p99, p999 float64
	p99ok, p999ok        bool
}

func summarize(samples []sample) latSummary {
	s := latSummary{n: len(samples)}
	if s.n == 0 {
		return s
	}
	sorted := make([]time.Duration, len(samples))
	var sum time.Duration
	for i, x := range samples {
		sorted[i] = x.lat
		sum += x.lat
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.mean = ms(sum) / float64(s.n)
	s.p50, _ = percentile(sorted, 0.50)
	s.p99, s.p99ok = percentile(sorted, 0.99)
	s.p999, s.p999ok = percentile(sorted, 0.999)
	return s
}

// percentile returns the q-quantile of a sorted sample in milliseconds and
// whether at least ten samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (float64, bool) {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return ms(sorted[i]), len(sorted)-1-i >= 10
}

// numSlices is how many equal slices the measured window is cut into. The
// gated metrics are medians over the slices, so that a disturbance from
// outside the program (another tenant's burst on the shared processor or
// disk) has to last half the window before it moves them.
const numSlices = 10

// endToEnd is the window's gated numbers: for each of tx_per_s, lat_p50_ms
// and lat_p99_ms the median over the slices of the per-slice value. A
// transaction belongs to the slice its outcome arrived in; the one or two
// that end after the window's deadline belong to none.
type endToEnd struct {
	txPerS, p50, p99 float64
	// minN is the smallest slice's sample count; p99ok says every slice had
	// ten samples beyond its p99.
	minN  int
	p99ok bool
}

func sliceMedians(p phase, window time.Duration) endToEnd {
	width := window / numSlices
	slices := make([][]sample, numSlices)
	for _, x := range p.samples {
		if k := int(x.end.Sub(p.start) / width); k >= 0 && k < numSlices {
			slices[k] = append(slices[k], x)
		}
	}
	e := endToEnd{minN: len(p.samples), p99ok: true}
	var rates, p50s, p99s []float64
	for _, sl := range slices {
		committed := 0
		for _, x := range sl {
			if x.committed {
				committed++
			}
		}
		s := summarize(sl)
		rates = append(rates, float64(committed)/width.Seconds())
		p50s = append(p50s, s.p50)
		p99s = append(p99s, s.p99)
		e.minN = min(e.minN, s.n)
		e.p99ok = e.p99ok && s.p99ok
	}
	e.txPerS, e.p50, e.p99 = median(rates), median(p50s), median(p99s)
	return e
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
