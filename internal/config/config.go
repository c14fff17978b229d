// Package config serializes complete Rainbow experiment configurations to
// JSON, implementing the paper's "configuration data can be saved for reuse
// in another session" (§4.2). A configuration bundles the instance setup
// (sites, database, replication, protocols, network simulation), the
// workload profile, and an optional fault-injection schedule.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/wlg"
)

// Experiment is a complete saved session configuration.
type Experiment struct {
	// Name labels the experiment in reports.
	Name string `json:"name"`
	// Sites lists the Rainbow sites.
	Sites []model.SiteID `json:"sites"`
	// Items maps items to initial values (replicated everywhere unless
	// Placements overrides).
	Items map[model.ItemID]int64 `json:"items"`
	// Placements optionally pins items to site subsets with votes and
	// quorums. Items absent here are replicated everywhere.
	Placements map[model.ItemID]Placement `json:"placements,omitempty"`
	// Protocols selects RCP/CCP/ACP.
	Protocols schema.Protocols `json:"protocols"`
	// Network configures the simulator.
	Network Network `json:"network"`
	// TimeoutsMS bounds protocol waits, in milliseconds.
	TimeoutsMS TimeoutsMS `json:"timeouts_ms"`
	// Workload is the simulated workload profile.
	Workload Workload `json:"workload"`
	// Faults optionally schedules fault injections relative to workload
	// start.
	Faults []Fault `json:"faults,omitempty"`
	// Shards sets each site's data-plane shard count (storage shards and
	// lock stripes); 0/absent selects a GOMAXPROCS-derived default.
	Shards int `json:"shards,omitempty"`
	// CheckpointBytes triggers a site checkpoint (fuzzy snapshot + WAL
	// compaction) after this many WAL bytes; 0/absent disables the trigger.
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	// CheckpointIntervalMS triggers periodic checkpoints; 0/absent disables.
	CheckpointIntervalMS int64 `json:"checkpoint_interval_ms,omitempty"`
	// CheckpointDeltaMax bounds consecutive delta (dirty-shards-only)
	// snapshots between full ones; 0/absent makes every snapshot full.
	CheckpointDeltaMax int `json:"checkpoint_delta_max,omitempty"`
	// CheckpointNoCOW disables copy-on-write shard capture (the snapshot is
	// then copied under the checkpoint gate) — an ablation knob.
	CheckpointNoCOW bool `json:"checkpoint_no_cow,omitempty"`
	// CheckpointNoDirtyItems disables per-item dirty tracking: delta
	// snapshots carry whole dirty shards instead of just the written items
	// — an ablation knob.
	CheckpointNoDirtyItems bool `json:"checkpoint_no_dirty_items,omitempty"`
	// TraceSampleRate samples this fraction of transactions for end-to-end
	// tracing (counter-based every-Nth at Begin); 0/absent disables sampling
	// (the always-on stage histograms still aggregate).
	TraceSampleRate float64 `json:"trace_sample_rate,omitempty"`
	// TraceRing bounds each site's completed-trace ring; 0/absent selects
	// the default.
	TraceRing int `json:"trace_ring,omitempty"`
	// TraceSlowMS dumps root traces slower than this to the site's
	// slow-trace sink; 0/absent disables.
	TraceSlowMS int64 `json:"trace_slow_ms,omitempty"`
	// CatalogPollMS makes each site probe the name server's catalog epoch
	// at this interval and live-reconfigure when it moved; 0/absent
	// disables polling (sites still receive the name server's push).
	CatalogPollMS int64 `json:"catalog_poll_ms,omitempty"`
	// Epoch is the catalog version this experiment was derived from. When
	// nonzero it acts as a compare-and-set token on catalog updates (POST
	// /catalog, nameserver.SetCatalog): the update is rejected as stale
	// unless it matches the server's current epoch.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Placement mirrors schema.ItemMeta's replication fields.
type Placement struct {
	Votes       map[model.SiteID]int `json:"votes"`
	ReadQuorum  int                  `json:"read_quorum"`
	WriteQuorum int                  `json:"write_quorum"`
}

// Network mirrors simnet.Config with JSON-friendly fields.
type Network struct {
	BaseLatencyUS int64   `json:"base_latency_us"`
	JitterUS      int64   `json:"jitter_us"`
	DropRate      float64 `json:"drop_rate"`
	Seed          int64   `json:"seed"`
}

// TimeoutsMS mirrors schema.Timeouts in milliseconds.
type TimeoutsMS struct {
	Op            int64 `json:"op"`
	Vote          int64 `json:"vote"`
	Ack           int64 `json:"ack"`
	Lock          int64 `json:"lock"`
	OrphanResolve int64 `json:"orphan_resolve"`
}

// Workload mirrors wlg.Profile with JSON-friendly fields.
type Workload struct {
	Transactions int     `json:"transactions"`
	MPL          int     `json:"mpl"`
	ArrivalRate  float64 `json:"arrival_rate,omitempty"`
	OpsPerTx     int     `json:"ops_per_tx"`
	ReadFraction float64 `json:"read_fraction"`
	Zipf         float64 `json:"zipf,omitempty"`
	HotItems     int     `json:"hot_items,omitempty"`
	Retries      int     `json:"retries"`
	RandomHomes  bool    `json:"random_homes,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
}

// Fault mirrors failure.Step with JSON-friendly fields.
type Fault struct {
	AfterMS int64            `json:"after_ms"`
	Kind    string           `json:"kind"`
	Site    model.SiteID     `json:"site,omitempty"`
	Groups  [][]model.SiteID `json:"groups,omitempty"`
}

// Default returns the demo configuration: 3 sites, 8 items, QC+2PL+2PC,
// 200 transactions at MPL 4.
func Default() Experiment {
	items := make(map[model.ItemID]int64)
	for _, it := range []model.ItemID{"a", "b", "c", "d", "e", "f", "g", "h"} {
		items[it] = 100
	}
	return Experiment{
		Name:      "default",
		Sites:     []model.SiteID{"S1", "S2", "S3"},
		Items:     items,
		Protocols: schema.Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"},
		Network:   Network{BaseLatencyUS: 200, JitterUS: 100},
		TimeoutsMS: TimeoutsMS{
			Op: 1000, Vote: 1000, Ack: 500, Lock: 500, OrphanResolve: 100,
		},
		Workload: Workload{
			Transactions: 200, MPL: 4, OpsPerTx: 4, ReadFraction: 0.75, Retries: 3,
		},
	}
}

// Validate checks the experiment for consistency.
func (e *Experiment) Validate() error {
	if len(e.Sites) == 0 {
		return fmt.Errorf("config: no sites")
	}
	if len(e.Items) == 0 {
		return fmt.Errorf("config: no items")
	}
	cat, err := e.BuildCatalog()
	if err != nil {
		return err
	}
	return cat.Validate()
}

// BuildCatalog converts the experiment into a schema catalog.
func (e *Experiment) BuildCatalog() (*schema.Catalog, error) {
	cat := schema.NewCatalog()
	for _, id := range e.Sites {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	for item, initial := range e.Items {
		if p, ok := e.Placements[item]; ok {
			cat.Items[item] = schema.ItemMeta{
				Item:        item,
				Initial:     initial,
				Votes:       p.Votes,
				ReadQuorum:  p.ReadQuorum,
				WriteQuorum: p.WriteQuorum,
			}
			continue
		}
		cat.ReplicateEverywhere(item, initial)
	}
	if e.Protocols != (schema.Protocols{}) {
		cat.Protocols = e.Protocols
	}
	cat.Timeouts = e.Timeouts()
	cat.Shards = e.Shards
	cat.Checkpoint = e.Checkpoint()
	cat.Trace = e.Trace()
	cat.Epoch = e.Epoch
	return cat, nil
}

// Trace converts the tracing fields to a schema policy.
func (e *Experiment) Trace() schema.TracePolicy {
	return schema.TracePolicy{
		SampleRate: e.TraceSampleRate,
		Ring:       e.TraceRing,
		SlowMS:     e.TraceSlowMS,
	}
}

// Checkpoint converts the checkpoint fields to a schema policy.
func (e *Experiment) Checkpoint() schema.CheckpointPolicy {
	return schema.CheckpointPolicy{
		Bytes:        e.CheckpointBytes,
		Interval:     time.Duration(e.CheckpointIntervalMS) * time.Millisecond,
		DeltaMax:     e.CheckpointDeltaMax,
		NoCOW:        e.CheckpointNoCOW,
		NoDirtyItems: e.CheckpointNoDirtyItems,
	}
}

// Timeouts converts TimeoutsMS to schema.Timeouts.
func (e *Experiment) Timeouts() schema.Timeouts {
	ms := func(v int64) time.Duration { return time.Duration(v) * time.Millisecond }
	return schema.Timeouts{
		Op:            ms(e.TimeoutsMS.Op),
		Vote:          ms(e.TimeoutsMS.Vote),
		Ack:           ms(e.TimeoutsMS.Ack),
		Lock:          ms(e.TimeoutsMS.Lock),
		OrphanResolve: ms(e.TimeoutsMS.OrphanResolve),
	}
}

// Options converts the experiment into core.Options.
func (e *Experiment) Options() (core.Options, error) {
	cat, err := e.BuildCatalog()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Catalog: cat,
		Net: simnet.Config{
			BaseLatency: time.Duration(e.Network.BaseLatencyUS) * time.Microsecond,
			Jitter:      time.Duration(e.Network.JitterUS) * time.Microsecond,
			DropRate:    e.Network.DropRate,
			Seed:        e.Network.Seed,
		},
		Shards:      e.Shards,
		CatalogPoll: time.Duration(e.CatalogPollMS) * time.Millisecond,
	}, nil
}

// Profile converts the workload section into a wlg.Profile (sites/items are
// filled by the instance at run time).
func (e *Experiment) Profile() wlg.Profile {
	w := e.Workload
	return wlg.Profile{
		Transactions: w.Transactions,
		MPL:          w.MPL,
		ArrivalRate:  w.ArrivalRate,
		OpsPerTx:     w.OpsPerTx,
		ReadFraction: w.ReadFraction,
		Zipf:         w.Zipf,
		HotItems:     w.HotItems,
		Retries:      w.Retries,
		RandomHomes:  w.RandomHomes,
		Seed:         w.Seed,
	}
}

// Steps converts the fault schedule into failure steps.
func (e *Experiment) Steps() []failure.Step {
	out := make([]failure.Step, 0, len(e.Faults))
	for _, f := range e.Faults {
		out = append(out, failure.Step{
			After:  time.Duration(f.AfterMS) * time.Millisecond,
			Kind:   f.Kind,
			Site:   f.Site,
			Groups: f.Groups,
		})
	}
	return out
}

// Save writes the experiment as indented JSON.
func (e *Experiment) Save(path string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("config: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("config: write %s: %w", path, err)
	}
	return nil
}

// Load reads an experiment from a JSON file and validates it.
func Load(path string) (Experiment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Experiment{}, fmt.Errorf("config: read %s: %w", path, err)
	}
	return Parse(b)
}

// Parse decodes and validates an experiment from JSON bytes.
func Parse(b []byte) (Experiment, error) {
	var e Experiment
	if err := json.Unmarshal(b, &e); err != nil {
		return Experiment{}, fmt.Errorf("config: parse: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Experiment{}, err
	}
	return e, nil
}
