// Package schema defines the Rainbow catalog: the metadata the name server
// stores and every site caches — site endpoint registrations, the database
// schema (items, initial values), the replication/distribution schema (which
// sites hold copies, with what votes and quorum thresholds), and the
// protocol selection (RCP/CCP/ACP) for the Rainbow instance.
package schema

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/quorum"
)

// SiteInfo is one site's registration entry.
type SiteInfo struct {
	ID model.SiteID
	// Addr is the transport endpoint specification (host:port under tcpnet;
	// informational under simnet).
	Addr string
}

// ItemMeta describes one logical item: its initial value and its
// replication schema.
type ItemMeta struct {
	Item    model.ItemID
	Initial int64
	// Votes maps each copy-holding site to its vote weight.
	Votes map[model.SiteID]int
	// ReadQuorum/WriteQuorum are the weighted-voting thresholds used by the
	// QC replication protocol. ROWA ignores them.
	ReadQuorum  int
	WriteQuorum int
}

// Assignment converts the item's replication schema to a quorum.Assignment.
func (m ItemMeta) Assignment() quorum.Assignment {
	return quorum.Assignment{Votes: m.Votes, ReadQuorum: m.ReadQuorum, WriteQuorum: m.WriteQuorum}
}

// Sites returns the copy-holding sites in sorted order.
func (m ItemMeta) Sites() []model.SiteID {
	out := make([]model.SiteID, 0, len(m.Votes))
	for s := range m.Votes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Protocols selects the transaction-processing protocols for an instance
// (paper Figure 4, the protocols-configuration panel).
type Protocols struct {
	// RCP: "rowa" or "qc" (default "qc", the paper's default).
	RCP string
	// CCP: "2pl", "tso" or "mvtso" (default "2pl").
	CCP string
	// ACP: "2pc" or "3pc" (default "2pc", the paper's default).
	ACP string
	// NoDeadlockDetection turns off 2PL's waits-for-graph cycle detection,
	// leaving deadlocks to lock-wait timeouts — an ablation knob for
	// classroom experiments on deadlock handling.
	NoDeadlockDetection bool
	// NoHotSplit disables 2PL's split execution of commutative adds
	// (hot-item delta slots with commit-time reconciliation), forcing
	// every add through an ordinary exclusive lock — the cc_no_split
	// ablation knob for hot-key contention experiments.
	NoHotSplit bool
}

// CheckpointPolicy configures each site's checkpoint & log-compaction
// subsystem. Zero values disable the corresponding automatic trigger
// (manual checkpoints always work on logs that support compaction).
type CheckpointPolicy struct {
	// Bytes triggers a checkpoint once this many WAL bytes have been
	// appended since the last one.
	Bytes int64
	// Interval triggers periodic checkpoints.
	Interval time.Duration
	// DeltaMax bounds the consecutive delta (dirty-shards-only) snapshots
	// between full snapshots. 0 means unset — a site-local policy defers to
	// the catalog's value; negative explicitly forces every snapshot full
	// (overriding the catalog).
	DeltaMax int
	// NoCOW disables copy-on-write shard capture, copying the snapshot
	// under the checkpoint gate instead (the decision pipeline stalls for
	// the O(data) copy) — an ablation knob.
	NoCOW bool
	// NoDirtyItems disables per-item dirty tracking: delta snapshots then
	// carry whole dirty shards instead of just the written items — the
	// pre-item (shard-granular) behavior, kept as an ablation knob.
	NoDirtyItems bool
}

// Enabled reports whether any automatic trigger is configured.
func (p CheckpointPolicy) Enabled() bool { return p.Bytes > 0 || p.Interval > 0 }

// TracePolicy configures each site's transaction tracer. The zero value
// keeps tracing off (stage histograms still accumulate; only per-transaction
// trace capture is sampled).
type TracePolicy struct {
	// SampleRate is the fraction of home transactions that record a full
	// stage-by-stage trace (0 = none, 1 = all). Sampling is counter-based
	// (every round(1/rate)-th Begin), so any positive rate yields traces.
	SampleRate float64
	// Ring bounds the per-site ring of completed trace fragments; <= 0
	// selects the default capacity.
	Ring int
	// SlowMS, when positive, marks any sampled transaction slower than this
	// many milliseconds end-to-end as slow and hands its trace to the
	// site's slow-trace hook.
	SlowMS int64
}

// Timeouts bounds protocol waits across the instance.
type Timeouts struct {
	// Op bounds one remote copy operation (read / pre-write).
	Op time.Duration
	// Vote bounds the coordinator's wait for each participant vote.
	Vote time.Duration
	// Ack bounds the coordinator's wait for decision acknowledgements.
	Ack time.Duration
	// Lock bounds CCP waits (lock waits, TSO intent gates).
	Lock time.Duration
	// OrphanResolve is the interval at which a recovering or in-doubt
	// participant re-queries for a decision.
	OrphanResolve time.Duration
}

// WithDefaults fills zero fields with defaults sized for the simulated
// network.
func (t Timeouts) WithDefaults() Timeouts {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&t.Op, 2*time.Second)
	def(&t.Vote, 2*time.Second)
	def(&t.Ack, 2*time.Second)
	def(&t.Lock, 2*time.Second)
	def(&t.OrphanResolve, 500*time.Millisecond)
	return t
}

// Catalog is the name server's full metadata set.
type Catalog struct {
	Sites     map[model.SiteID]SiteInfo
	Items     map[model.ItemID]ItemMeta
	Protocols Protocols
	Timeouts  Timeouts
	// Shards is the per-site data-plane shard count (storage shards and
	// 2PL lock stripes); 0 selects each site's GOMAXPROCS-derived default.
	// Carried in the catalog so sites that fetch their configuration from
	// the name server honor the experiment's setting.
	Shards int
	// Checkpoint is the per-site checkpoint/compaction policy, carried in
	// the catalog for the same reason as Shards.
	Checkpoint CheckpointPolicy
	// Trace is the per-site transaction-tracing policy, carried in the
	// catalog for the same reason as Shards.
	Trace TracePolicy
	// Epoch increments on every catalog update so sites can detect staleness.
	Epoch uint64
}

// NewCatalog returns an empty catalog with default protocols.
func NewCatalog() *Catalog {
	return &Catalog{
		Sites:     make(map[model.SiteID]SiteInfo),
		Items:     make(map[model.ItemID]ItemMeta),
		Protocols: Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"},
	}
}

// Clone deep-copies the catalog.
func (c *Catalog) Clone() *Catalog {
	out := &Catalog{
		Sites:      make(map[model.SiteID]SiteInfo, len(c.Sites)),
		Items:      make(map[model.ItemID]ItemMeta, len(c.Items)),
		Protocols:  c.Protocols,
		Timeouts:   c.Timeouts,
		Shards:     c.Shards,
		Checkpoint: c.Checkpoint,
		Trace:      c.Trace,
		Epoch:      c.Epoch,
	}
	for k, v := range c.Sites {
		out.Sites[k] = v
	}
	for k, v := range c.Items {
		votes := make(map[model.SiteID]int, len(v.Votes))
		for s, n := range v.Votes {
			votes[s] = n
		}
		v.Votes = votes
		out.Items[k] = v
	}
	return out
}

// SiteIDs returns registered sites in sorted order.
func (c *Catalog) SiteIDs() []model.SiteID {
	out := make([]model.SiteID, 0, len(c.Sites))
	for s := range c.Sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ItemIDs returns configured items in sorted order.
func (c *Catalog) ItemIDs() []model.ItemID {
	out := make([]model.ItemID, 0, len(c.Items))
	for i := range c.Items {
		out = append(out, i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LocalItems returns the item→initial-value map for copies hosted at site,
// used to initialize the site's store.
func (c *Catalog) LocalItems(site model.SiteID) map[model.ItemID]int64 {
	out := make(map[model.ItemID]int64)
	for id, m := range c.Items {
		if _, ok := m.Votes[site]; ok {
			out[id] = m.Initial
		}
	}
	return out
}

// Diff summarizes what changed between two catalog versions. Sites use it
// during online reconfiguration to decide whether an epoch bump needs a
// full protocol-stack rebuild or is metadata-only (site registrations bump
// the epoch too, and chasing those with a rebuild would force a snapshot
// for nothing).
type Diff struct {
	// EpochFrom/EpochTo are the two catalogs' epochs.
	EpochFrom, EpochTo uint64
	// Sites marks changes to the site registrations (ids or endpoints).
	Sites bool
	// Items marks changes to the database/replication schema: items added,
	// removed, re-placed, re-voted or re-quorumed.
	Items bool
	// Shards marks a data-plane shard-count change.
	Shards bool
	// Checkpoint marks a checkpoint/compaction policy change.
	Checkpoint bool
	// Protocols marks an RCP/CCP/ACP (or ablation-knob) change.
	Protocols bool
	// Timeouts marks a protocol-timeout change.
	Timeouts bool
	// Trace marks a tracing-policy change.
	Trace bool
}

// Material reports whether the diff changes anything a site acts on. Pure
// site-registration changes are immaterial: they alter the name server's
// address book, not any site-local structure.
func (d Diff) Material() bool {
	return d.Items || d.Shards || d.Checkpoint || d.Protocols || d.Timeouts || d.Trace
}

// RequiresRebuild reports whether the diff needs the full quiesce +
// snapshot + stack-rebuild path. Timeouts-only and trace-only changes are
// material but adopt in place: they touch no store, CC or checkpoint
// structure, and a forced O(store) snapshot plus fence-aborting every
// in-flight transaction would be pure waste for them.
func (d Diff) RequiresRebuild() bool {
	return d.Items || d.Shards || d.Checkpoint || d.Protocols
}

// String renders the changed facets for reconfiguration logs.
func (d Diff) String() string {
	parts := []string{fmt.Sprintf("epoch %d->%d", d.EpochFrom, d.EpochTo)}
	for _, f := range []struct {
		on   bool
		name string
	}{
		{d.Sites, "sites"}, {d.Items, "items"}, {d.Shards, "shards"},
		{d.Checkpoint, "checkpoint"}, {d.Protocols, "protocols"},
		{d.Timeouts, "timeouts"}, {d.Trace, "trace"},
	} {
		if f.on {
			parts = append(parts, f.name)
		}
	}
	if len(parts) == 1 {
		parts = append(parts, "no material change")
	}
	return strings.Join(parts, " ")
}

// DiffFrom computes what c changes relative to old.
func (c *Catalog) DiffFrom(old *Catalog) Diff {
	d := Diff{
		EpochFrom:  old.Epoch,
		EpochTo:    c.Epoch,
		Shards:     c.Shards != old.Shards,
		Checkpoint: c.Checkpoint != old.Checkpoint,
		Protocols:  c.Protocols != old.Protocols,
		Timeouts:   c.Timeouts != old.Timeouts,
		Trace:      c.Trace != old.Trace,
		Sites:      !reflect.DeepEqual(c.Sites, old.Sites),
		Items:      !reflect.DeepEqual(c.Items, old.Items),
	}
	return d
}

// Validate checks internal consistency: every copy placement names a
// registered site, every item has a valid quorum assignment, and the
// protocol names are known.
func (c *Catalog) Validate() error {
	switch c.Protocols.RCP {
	case "rowa", "qc", "":
	default:
		return fmt.Errorf("schema: unknown RCP %q", c.Protocols.RCP)
	}
	switch c.Protocols.CCP {
	case "2pl", "tso", "mvtso", "":
	default:
		return fmt.Errorf("schema: unknown CCP %q", c.Protocols.CCP)
	}
	switch c.Protocols.ACP {
	case "2pc", "3pc", "":
	default:
		return fmt.Errorf("schema: unknown ACP %q", c.Protocols.ACP)
	}
	for id, m := range c.Items {
		if id == "" {
			return fmt.Errorf("schema: empty item id")
		}
		if m.Item != "" && m.Item != id {
			return fmt.Errorf("schema: item %s keyed under %s", m.Item, id)
		}
		for s := range m.Votes {
			if _, ok := c.Sites[s]; !ok {
				return fmt.Errorf("schema: item %s places a copy on unregistered site %s", id, s)
			}
		}
		if err := m.Assignment().Validate(); err != nil {
			return fmt.Errorf("schema: item %s: %w", id, err)
		}
	}
	return nil
}

// ReplicateEverywhere places one copy of item on every registered site with
// majority quorums — the default replication scheme for demos.
func (c *Catalog) ReplicateEverywhere(item model.ItemID, initial int64) {
	sites := c.SiteIDs()
	a := quorum.Majority(sites)
	c.Items[item] = ItemMeta{
		Item:        item,
		Initial:     initial,
		Votes:       a.Votes,
		ReadQuorum:  a.ReadQuorum,
		WriteQuorum: a.WriteQuorum,
	}
}

// PlaceCopies places copies of item on the given sites with one vote each
// and majority quorums.
func (c *Catalog) PlaceCopies(item model.ItemID, initial int64, sites ...model.SiteID) {
	a := quorum.Majority(sites)
	c.Items[item] = ItemMeta{
		Item:        item,
		Initial:     initial,
		Votes:       a.Votes,
		ReadQuorum:  a.ReadQuorum,
		WriteQuorum: a.WriteQuorum,
	}
}
