package rcp

import (
	"repro/internal/model"
	"repro/internal/quorum"
	"repro/internal/schema"
)

// QC is Gifford-style weighted-voting quorum consensus, Rainbow's default
// RCP (paper §2.1: "QC starts by building a quorum (read or write) for the
// first operation of the transaction").
//
// A logical read assembles a read quorum of copies and returns the value
// carried by the highest version number in the quorum; a logical write
// pre-writes a write quorum and installs max(version)+1 at its members.
// Copies that fail to respond are replaced by other vote-holders; the
// operation aborts with cause RCP only when the remaining copies cannot
// carry a quorum.
var QC = Protocol{name: "qc", rule: qcRule}

func qcRule(sess *Session, kind model.OpKind, meta schema.ItemMeta) (quorum.Assignment, int) {
	switch kind {
	case model.OpRead:
		return meta.Assignment(), meta.ReadQuorum
	case model.OpWrite:
		// A repeated write of an item this transaction already wrote is
		// pinned to the original write quorum: every member re-pre-writes
		// (their X-locks/intents are already ours, so this cannot block on
		// strangers) and the recorded value is replaced in place, keeping
		// the install version. Picking a fresh quorum here would be a
		// correctness bug: a member of the old quorum outside the new one
		// would keep the stale record, and commit would install two
		// different values under the same version number on different
		// copies. A wave plans with no session: nothing is written yet.
		if sess != nil {
			if sites, _, ok := sess.WriteQuorum(meta.Item); ok {
				return allOf(sites)
			}
		}
		return meta.Assignment(), meta.WriteQuorum
	default:
		// Blind adds pre-write ALL copies, not a write quorum (see
		// Protocol.Add).
		return allOf(meta.Sites())
	}
}
