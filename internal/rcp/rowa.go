package rcp

import (
	"repro/internal/model"
	"repro/internal/quorum"
	"repro/internal/schema"
)

// ROWA is Read-One-Write-All: a logical read touches exactly one copy
// (preferring the local one, failing over to the next when it is
// unreachable) and a logical write or add must pre-write every copy, so any
// unreachable copy aborts it with cause RCP. ROWA minimizes message traffic
// for read-heavy workloads but its write availability collapses as soon as
// any copy site is down — the contrast experiments E2/E5/E7 measure against
// QC.
var ROWA = Protocol{name: "rowa", rule: rowaRule}

func rowaRule(_ *Session, kind model.OpKind, meta schema.ItemMeta) (quorum.Assignment, int) {
	a, all := allOf(meta.Sites())
	if kind == model.OpRead {
		return a, 1
	}
	return a, all
}
