package wire

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	in := PrepareReq{
		Tx:          model.TxID{Site: "S1", Seq: 7},
		TS:          model.Timestamp{Time: 9, Site: "S1"},
		Coordinator: "S1",
		Writes: []model.WriteRecord{
			{Item: "x", Value: 42, Version: 3},
			{Item: "y", Value: -1, Version: 1},
		},
		Participants: []model.SiteID{"S1", "S2", "S3"},
		ThreePhase:   true,
	}
	payload := in.AppendTo(nil)
	var out PrepareReq
	if err := out.DecodeFrom(payload); err != nil {
		t.Fatal(err)
	}
	if out.Tx != in.Tx || out.TS != in.TS || out.Coordinator != in.Coordinator ||
		len(out.Writes) != 2 || out.Writes[0] != in.Writes[0] || out.Writes[1] != in.Writes[1] ||
		len(out.Participants) != 3 || !out.ThreePhase {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(tx uint64, site string, n uint64, ballotSite string) bool {
		in := TermQueryReq{
			Tx:     model.TxID{Site: model.SiteID(site), Seq: tx},
			Ballot: model.Ballot{N: n, Site: model.SiteID(ballotSite)},
		}
		var out TermQueryReq
		return out.DecodeFrom(in.AppendTo(nil)) == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalError(t *testing.T) {
	var out VoteResp
	if err := out.DecodeFrom([]byte{0x01, 0x02}); err == nil {
		t.Error("garbage payload should fail to unmarshal")
	}
}

func TestEnvelopeSize(t *testing.T) {
	env := &Envelope{From: "S1", To: "S2", Kind: KindPing, Corr: 1, Payload: make([]byte, 100)}
	if got := env.Size(); got <= 100 {
		t.Errorf("Size() = %d, want > payload length", got)
	}
	empty := &Envelope{From: "a", To: "b"}
	if empty.Size() <= 0 {
		t.Error("empty envelope should still have header size")
	}
}

func TestMsgKindString(t *testing.T) {
	if KindPrepare.String() != "Prepare" {
		t.Errorf("KindPrepare.String() = %q", KindPrepare.String())
	}
	if MsgKind(9999).String() != "MsgKind(9999)" {
		t.Errorf("unknown kind string = %q", MsgKind(9999).String())
	}
}

func TestErrorBodyPreservesAbortCause(t *testing.T) {
	eb := ErrorBody{Cause: model.AbortCC, Reason: "deadlock"}
	err := eb.Err()
	if model.CauseOf(err) != model.AbortCC {
		t.Errorf("cause lost across ErrorBody: %v", model.CauseOf(err))
	}

	generic := ErrorBody{Cause: model.AbortNone, Reason: "io failure"}
	if model.CauseOf(generic.Err()) == model.AbortCC {
		t.Error("generic error must not become a protocol abort")
	}
	if generic.Err() == nil {
		t.Error("non-abort ErrorBody must still be an error")
	}
}
