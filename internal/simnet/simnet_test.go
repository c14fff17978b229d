package simnet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

func attach(t *testing.T, n *Net, id model.SiteID, h wire.Handler) wire.Endpoint {
	t.Helper()
	if h == nil {
		h = func(*wire.Envelope) {}
	}
	ep, err := n.Attach(id, h)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeliver(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(env *wire.Envelope) {
		if env.From == "a" && env.Kind == wire.KindPing {
			got.Add(1)
		}
	})
	a := attach(t, n, "a", nil)
	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 }, "message not delivered")
}

func TestLatency(t *testing.T) {
	n := New(Config{BaseLatency: 30 * time.Millisecond})
	done := make(chan time.Time, 1)
	attach(t, n, "b", func(*wire.Envelope) { done <- time.Now() })
	a := attach(t, n, "a", nil)
	start := time.Now()
	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	arrived := <-done
	if d := arrived.Sub(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", d)
	}
}

func TestDropAll(t *testing.T) {
	n := New(Config{DropRate: 1.0})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	for i := 0; i < 20; i++ {
		a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Errorf("%d messages delivered with DropRate=1", got.Load())
	}
	if s := n.Stats(); s.Dropped != 20 {
		t.Errorf("Dropped = %d, want 20", s.Dropped)
	}
}

func TestDropRateStatistical(t *testing.T) {
	n := New(Config{DropRate: 0.5, Seed: 42})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	const total = 1000
	for i := 0; i < total; i++ {
		a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	}
	waitFor(t, func() bool {
		s := n.Stats()
		return s.Delivered+s.Dropped == total
	}, "messages unaccounted for")
	d := int(got.Load())
	if d < 350 || d > 650 {
		t.Errorf("delivered %d of %d with 50%% drop, outside [350,650]", d, total)
	}
}

func TestPartition(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)

	n.Partition([]model.SiteID{"a"}, []model.SiteID{"b"})
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	time.Sleep(10 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("message crossed partition")
	}

	n.Heal()
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	waitFor(t, func() bool { return got.Load() == 1 }, "message not delivered after heal")
}

func TestDropFilter(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	n.Drop(func(env *wire.Envelope) bool { return env.Kind == wire.KindDecision })
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindDecision})
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing})
	waitFor(t, func() bool { return got.Load() == 1 }, "unfiltered message not delivered")
	if s := n.Stats(); s.Dropped != 1 {
		t.Errorf("Dropped = %d, want the filtered decision", s.Dropped)
	}
	n.Drop(nil)
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindDecision})
	waitFor(t, func() bool { return got.Load() == 2 }, "message not delivered after the filter cleared")
}

func TestPartitionSameGroupDelivers(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	n.Partition([]model.SiteID{"a", "b"}, []model.SiteID{"c"})
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	waitFor(t, func() bool { return got.Load() == 1 }, "same-group message not delivered")
}

func TestPauseResume(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)

	n.Pause("b")
	if !n.Paused("b") {
		t.Fatal("b should be paused")
	}
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	time.Sleep(10 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("paused site received a message")
	}

	n.Resume("b")
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	waitFor(t, func() bool { return got.Load() == 1 }, "resumed site did not receive")
}

func TestPausedSenderProducesNoTraffic(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	n.Pause("a")
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	time.Sleep(10 * time.Millisecond)
	if got.Load() != 0 {
		t.Error("paused sender's message was delivered")
	}
	if s := n.Stats(); s.Sent != 0 {
		t.Errorf("paused sender counted as Sent: %+v", s)
	}
}

func TestInFlightToCrashedSiteDropped(t *testing.T) {
	n := New(Config{BaseLatency: 20 * time.Millisecond})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	n.Pause("b") // crash while the message is in flight
	time.Sleep(50 * time.Millisecond)
	if got.Load() != 0 {
		t.Error("in-flight message delivered to crashed site")
	}
}

func TestStatsAccounting(t *testing.T) {
	n := New(Config{})
	attach(t, n, "b", func(*wire.Envelope) {})
	a := attach(t, n, "a", nil)
	env := &wire.Envelope{From: "a", To: "b", Payload: []byte("hello")}
	for i := 0; i < 5; i++ {
		a.Send(context.Background(), env)
	}
	waitFor(t, func() bool { return n.Stats().Delivered == 5 }, "deliveries not counted")
	s := n.Stats()
	if s.Sent != 5 {
		t.Errorf("Sent = %d", s.Sent)
	}
	if s.Bytes == 0 {
		t.Error("Bytes not counted")
	}
	if s.PerLink[LinkKey{"a", "b"}] != 5 {
		t.Errorf("PerLink = %v", s.PerLink)
	}

	n.ResetStats()
	if s := n.Stats(); s.Sent != 0 || s.Delivered != 0 || len(s.PerLink) != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

func TestPerLinkOverride(t *testing.T) {
	n := New(Config{})
	var got atomic.Int32
	attach(t, n, "b", func(*wire.Envelope) { got.Add(1) })
	a := attach(t, n, "a", nil)
	n.SetLink("a", "b", Link{DropRate: 1.0})
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	time.Sleep(10 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("per-link drop override ignored")
	}
	n.ClearLinks()
	a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
	waitFor(t, func() bool { return got.Load() == 1 }, "message not delivered after ClearLinks")
}

func TestDuplicateAttach(t *testing.T) {
	n := New(Config{})
	attach(t, n, "a", nil)
	if _, err := n.Attach("a", func(*wire.Envelope) {}); err == nil {
		t.Error("duplicate attach should fail")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	n := New(Config{})
	if _, err := n.Attach("a", nil); err == nil {
		t.Error("nil handler should be rejected")
	}
}

func TestClosedEndpointSendFails(t *testing.T) {
	n := New(Config{})
	a := attach(t, n, "a", nil)
	a.Close()
	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"}); err == nil {
		t.Error("send on closed endpoint should fail")
	}
}

func TestReattachAfterClose(t *testing.T) {
	n := New(Config{})
	a := attach(t, n, "a", nil)
	a.Close()
	if _, err := n.Attach("a", func(*wire.Envelope) {}); err != nil {
		t.Errorf("re-attach after close failed: %v", err)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() uint64 {
		n := New(Config{DropRate: 0.3, Seed: 7})
		attach(t, n, "b", func(*wire.Envelope) {})
		a := attach(t, n, "a", nil)
		for i := 0; i < 200; i++ {
			a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
		}
		waitFor(t, func() bool {
			s := n.Stats()
			return s.Delivered+s.Dropped == 200
		}, "messages unaccounted for")
		return n.Stats().Dropped
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different drop counts: %d vs %d", a, b)
	}
}
