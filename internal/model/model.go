// Package model defines the core data types shared by every Rainbow
// subsystem: identifiers for sites, items and transactions, logical
// timestamps, transaction operations, versions, abort causes and
// transaction outcomes.
//
// The types here are deliberately small and serializable so they can cross
// the wire layer unchanged.
package model

import (
	"fmt"
	"strconv"
	"strings"
)

// SiteID names a Rainbow site (or the name server) uniquely within a
// Rainbow instance. The paper calls these "Rainbow sites"; the name server
// is itself addressable and conventionally uses NameServerID.
type SiteID string

// NameServerID is the well-known address of the Rainbow name server on the
// wire layer. There is exactly one name server per Rainbow instance.
const NameServerID SiteID = "@ns"

// ItemID names a logical database item. Physical copies of an item are
// placed on sites according to the replication schema held by the name
// server.
type ItemID string

// TxID identifies a transaction globally: the home site that accepted it
// plus a per-site sequence number.
type TxID struct {
	Site SiteID
	Seq  uint64
}

// String renders the TxID in the canonical "site:seq" form.
func (t TxID) String() string { return string(t.Site) + ":" + strconv.FormatUint(t.Seq, 10) }

// IsZero reports whether the TxID is the zero value (no transaction).
func (t TxID) IsZero() bool { return t.Site == "" && t.Seq == 0 }

// ParseTxID parses the canonical "site:seq" form produced by TxID.String.
func ParseTxID(s string) (TxID, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return TxID{}, fmt.Errorf("model: malformed tx id %q", s)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return TxID{}, fmt.Errorf("model: malformed tx id %q: %v", s, err)
	}
	return TxID{Site: SiteID(s[:i]), Seq: seq}, nil
}

// Timestamp is a Lamport timestamp with a site-id tie-break, giving a total
// order over transactions. It is used by the timestamp-ordering CCPs and to
// order commit decisions deterministically.
type Timestamp struct {
	Time uint64
	Site SiteID
}

// Less reports whether a precedes b in the total timestamp order.
func (a Timestamp) Less(b Timestamp) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Site < b.Site
}

// IsZero reports whether the timestamp is unset.
func (a Timestamp) IsZero() bool { return a.Time == 0 && a.Site == "" }

// String renders the timestamp as "time@site".
func (a Timestamp) String() string {
	return strconv.FormatUint(a.Time, 10) + "@" + string(a.Site)
}

// Ballot is an E3PC termination-election epoch: a totally ordered
// (attempt number, initiator) pair. The live coordinator's pre-commit round
// runs at Ballot{0, coordinator}; termination elections pick strictly
// higher ballots (attempt numbers start at 1), and the initiator component
// breaks ties so no two initiators ever share a ballot. Quorum-based 3PC
// termination stamps every election and pre-decision with its ballot so a
// re-forming partition cannot resurrect a stale attempt against a newer
// decision.
type Ballot struct {
	N    uint64
	Site SiteID
}

// Less reports whether a precedes b in the total ballot order.
func (a Ballot) Less(b Ballot) bool {
	if a.N != b.N {
		return a.N < b.N
	}
	return a.Site < b.Site
}

// IsZero reports whether the ballot is unset (below every coordinator
// ballot).
func (a Ballot) IsZero() bool { return a.N == 0 && a.Site == "" }

// String renders the ballot as "n@site".
func (a Ballot) String() string {
	return strconv.FormatUint(a.N, 10) + "@" + string(a.Site)
}

// OpKind distinguishes read and write operations.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	// OpAdd is a blind commutative increment: add Value (the delta, possibly
	// negative) to the item without observing it. Because blind adds commute
	// with each other, concurrency control may admit concurrent adds to the
	// same item without mutual exclusion (hot-item split execution); an add
	// never returns the item's value to the client.
	OpAdd
)

// String returns "R", "W" or "A".
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpAdd:
		return "A"
	default:
		return "?"
	}
}

// Op is one operation of a transaction: a read of Item, a write of Value to
// Item, or a blind add of Value to Item. Rainbow items hold int64 values
// (the original system used simple scalar items configured through the GUI).
type Op struct {
	Kind  OpKind
	Item  ItemID
	Value int64 // meaningful for writes and adds only
}

// String renders the op as "R(x)", "W(x=v)" or "A(x+=d)".
func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		return fmt.Sprintf("W(%s=%d)", o.Item, o.Value)
	case OpAdd:
		return fmt.Sprintf("A(%s+=%d)", o.Item, o.Value)
	}
	return fmt.Sprintf("R(%s)", o.Item)
}

// Read constructs a read operation.
func Read(item ItemID) Op { return Op{Kind: OpRead, Item: item} }

// Write constructs a write operation.
func Write(item ItemID, v int64) Op { return Op{Kind: OpWrite, Item: item, Value: v} }

// Add constructs a blind commutative add operation.
func Add(item ItemID, delta int64) Op { return Op{Kind: OpAdd, Item: item, Value: delta} }

// Transaction is a flat list of operations executed atomically. The home
// site assigns ID and TS on admission.
type Transaction struct {
	ID  TxID
	TS  Timestamp
	Ops []Op
}

// ReadSet returns the distinct items read by the transaction, in first-use
// order.
func (t *Transaction) ReadSet() []ItemID { return t.itemSet(OpRead) }

// WriteSet returns the distinct items written by the transaction (absolute
// writes and blind adds), in first-use order.
func (t *Transaction) WriteSet() []ItemID { return t.itemSet(OpWrite, OpAdd) }

func (t *Transaction) itemSet(kinds ...OpKind) []ItemID {
	seen := make(map[ItemID]bool, len(t.Ops))
	var out []ItemID
	for _, op := range t.Ops {
		match := false
		for _, k := range kinds {
			if op.Kind == k {
				match = true
				break
			}
		}
		if match && !seen[op.Item] {
			seen[op.Item] = true
			out = append(out, op.Item)
		}
	}
	return out
}

// Version numbers a physical copy of an item. Quorum consensus installs
// max(version in write quorum)+1 on writes and returns the max-version value
// from a read quorum.
type Version uint64

// AbortCause classifies why a transaction aborted, matching the paper's
// per-protocol abort statistics (Section 3: "abort rates for each type").
type AbortCause uint8

// Abort causes.
const (
	AbortNone     AbortCause = iota // transaction committed
	AbortCC                         // concurrency control: deadlock, timestamp rejection, lock timeout
	AbortRCP                        // replication control: quorum unavailable / copy unreachable
	AbortACP                        // atomic commitment: negative vote or commit-protocol timeout
	AbortInjected                   // explicitly injected by the failure injector
	AbortClient                     // client/session cancelled the transaction
	// AbortInDoubt is NOT a clean abort: the commit protocol could not
	// resolve the outcome within the call (3PC's pre-commit quorum was
	// unreachable) and quorum termination will decide it later — possibly
	// as a COMMIT. Callers must not blindly resubmit the work (the
	// original transaction may still take effect) and must not count it
	// as a protocol abort.
	AbortInDoubt
)

// String names the cause for reports.
func (c AbortCause) String() string {
	switch c {
	case AbortNone:
		return "none"
	case AbortCC:
		return "ccp"
	case AbortRCP:
		return "rcp"
	case AbortACP:
		return "acp"
	case AbortInjected:
		return "injected"
	case AbortClient:
		return "client"
	case AbortInDoubt:
		return "indoubt"
	default:
		return "unknown"
	}
}

// AbortError is the error returned through the transaction-processing stack
// when a protocol aborts a transaction. Cause records which protocol layer
// initiated the abort.
type AbortError struct {
	Cause  AbortCause
	Reason string
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("abort(%s): %s", e.Cause, e.Reason)
}

// Abortf builds an AbortError with a formatted reason.
func Abortf(cause AbortCause, format string, args ...any) *AbortError {
	return &AbortError{Cause: cause, Reason: fmt.Sprintf(format, args...)}
}

// CauseOf extracts the abort cause from an error chain, or AbortNone if err
// is nil, or AbortClient for non-abort errors (treated as client/session
// failures).
func CauseOf(err error) AbortCause {
	if err == nil {
		return AbortNone
	}
	if ae, ok := err.(*AbortError); ok {
		return ae.Cause
	}
	return AbortClient
}

// Outcome summarizes a finished transaction for the progress monitor and the
// workload generator.
type Outcome struct {
	Tx        TxID
	Committed bool
	Cause     AbortCause
	// LatencyNS is the wall-clock response time in nanoseconds from
	// admission at the home site to final decision.
	LatencyNS int64
	// Reads maps each item read to the value returned (committed reads only).
	Reads map[ItemID]int64
	// HomeSite is the site that coordinated the transaction.
	HomeSite SiteID
}

// WriteRecord is one installed write carried through pre-write, prepare and
// commit: the item, the value, and the version the write installs.
//
// Delta marks a commutative blind-add record: Value is then a delta merged
// into the copy's current value (the store applies value += Value and bumps
// the version by one) instead of an absolute overwrite. Delta application is
// NOT idempotent, so every path that installs records — the decision
// pipeline, WAL redo, checkpoint recovery — must apply each record exactly
// once; Rainbow's participant decision table and checkpoint horizon
// exactness already guarantee that.
type WriteRecord struct {
	Item    ItemID
	Value   int64
	Version Version
	Delta   bool
}
