package dsms

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/netsim"
	"streamkf/internal/stream"
)

// laneQuery is the i-th source's registration for the multi-source
// tests.
func laneQuery(i int) stream.Query {
	return stream.Query{ID: fmt.Sprintf("q-%d", i), SourceID: fmt.Sprintf("src-%d", i), Delta: 0.5, Model: "linear"}
}

func laneData(i int) []stream.Reading {
	return gen.Ramp(240, float64(i), 1.5, 0.3, int64(17+i))
}

// newMultiSourceServer builds a server with nSrc sources registered and
// a UDPServer bound to loopback.
func newMultiSourceServer(t testing.TB, nSrc, rxBatch int) (*Server, *UDPServer) {
	t.Helper()
	s := NewServer(testCatalog())
	for i := 0; i < nSrc; i++ {
		if err := s.Register(laneQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{
		RxBatch: rxBatch,
		Engine:  EngineOptions{Shards: 2, RingSize: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		s.Engine().Close()
	})
	return s, ts
}

// TestUDPMultiSourceLossySemantics is the multi-source transport-
// equivalence gate: every source's datagrams misbehave per its own
// netsim schedule (drop, duplicate, swap), the sources' streams are
// interleaved round-robin into the one reader, and the two shards
// apply them. The state each stream reaches must be bit-identical to a
// reference server fed that stream's surviving subsequence in order —
// interleaving other sources and sharding add no new semantics.
func TestUDPMultiSourceLossySemantics(t *testing.T) {
	const nSrc = 6
	links := []netsim.Link{
		{},
		{DupEvery: 3},
		{SwapEvery: 4},
		{DropEvery: 5},
		{DropEvery: 7, DupEvery: 3, SwapEvery: 5},
		{DupEvery: 2},
	}

	s, ts := newMultiSourceServer(t, nSrc, 8)
	want := make([][]core.Update, nSrc)
	wantDedup := 0
	dgs := make([][][]byte, nSrc)
	for i := 0; i < nSrc; i++ {
		ups := makeUpdates(t, laneQuery(i), laneData(i))
		order := links[i].Schedule(len(ups))
		var dedup, preBoot int
		want[i], dedup, preBoot = surviving(ups, order)
		if preBoot != 0 || len(want[i]) == 0 || !want[i][0].Bootstrap {
			t.Fatalf("src %d: schedule delayed the bootstrap", i)
		}
		wantDedup += dedup
		for _, idx := range order {
			dgs[i] = append(dgs[i], updateDatagram(t, &ups[idx]))
		}
	}

	// Cross-source order is arbitrary, per-source order is the
	// schedule's: the shape one socket queue delivers.
	for pos, sent := 0, true; sent; pos++ {
		sent = false
		for i := 0; i < nSrc; i++ {
			if pos < len(dgs[i]) {
				ts.processDatagram(dgs[i][pos], netip.AddrPort{})
				sent = true
			}
		}
	}
	ts.eng.Quiesce()
	for _, sh := range ts.eng.Stats() {
		if sh.Dropped != 0 {
			t.Fatalf("engine shed %d updates; ring sized too small for the test", sh.Dropped)
		}
	}

	for i := 0; i < nSrc; i++ {
		q := laneQuery(i)
		ref := refServer(t, q, want[i])
		snap := nodeSnapshot(t, s, q.SourceID)
		assertSameState(t, snap, nodeSnapshot(t, ref, q.SourceID))
		assertFiniteState(t, snap)
	}
	if got := engineDedupCount(s); got != wantDedup {
		t.Fatalf("dedup counter = %d, schedules imply %d", got, wantDedup)
	}
	if z := s.Streamz().Engine; z.PreBootstrap != 0 || z.Rejected != 0 {
		t.Fatalf("in-schedule delivery dropped updates: pre_bootstrap %d, rejected %d", z.PreBootstrap, z.Rejected)
	}
}

// TestStepAllShardedEquivalence pins the tentpole's bit-identity claim
// for batch advances: AdvanceAll on an engine-attached server (each
// stream advanced on its owning shard worker) must leave every filter
// bit-identical to the bounded worker-pool StepAll on an engine-less
// server fed the same updates.
func TestStepAllShardedEquivalence(t *testing.T) {
	const nSrc = 5
	ups := make([][]core.Update, nSrc)
	for i := 0; i < nSrc; i++ {
		ups[i] = makeUpdates(t, laneQuery(i), laneData(i))
	}
	build := func(withEngine bool) *Server {
		s := NewServer(testCatalog())
		for i := 0; i < nSrc; i++ {
			if err := s.Register(laneQuery(i)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.InstallFor(laneQuery(i).SourceID); err != nil {
				t.Fatal(err)
			}
		}
		if withEngine {
			s.StartEngine(EngineOptions{Shards: 2})
		}
		for i := 0; i < nSrc; i++ {
			for k := range ups[i] {
				if err := s.HandleUpdate(ups[i][k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	sharded := build(true)
	defer sharded.Engine().Close()
	pooled := build(false)

	target := 0
	for i := 0; i < nSrc; i++ {
		if last := ups[i][len(ups[i])-1].Seq; last > target {
			target = last
		}
	}
	target += 50

	na := sharded.AdvanceAll(target)
	nb := pooled.AdvanceAll(target)
	if na != nSrc || nb != nSrc {
		t.Fatalf("advanced %d (sharded) / %d (pooled) streams, want %d", na, nb, nSrc)
	}
	for i := 0; i < nSrc; i++ {
		id := laneQuery(i).SourceID
		assertSameState(t, nodeSnapshot(t, sharded, id), nodeSnapshot(t, pooled, id))
	}
	// Re-advancing to the same seq is a no-op on both paths.
	if n := sharded.AdvanceAll(target); n != 0 {
		t.Fatalf("second sharded AdvanceAll advanced %d streams, want 0", n)
	}
	if n := pooled.AdvanceAll(target); n != 0 {
		t.Fatalf("second pooled AdvanceAll advanced %d streams, want 0", n)
	}
}

// TestUDPLaneRxAllocFree gates the reader's steady-state receive path
// with several sources interleaved — per-batch histogram observe,
// preamble check, frame walk, update decode, per-source intern, ring
// handoff to whichever shard owns the source — at zero allocations per
// datagram. TestUDPRxAllocFree pins the one-source shape; this one
// pins that alternating between interned sources and shards adds
// nothing. The syscall half is covered by the end-to-end tests.
func TestUDPLaneRxAllocFree(t *testing.T) {
	const nSrc = 4
	_, ts := newMultiSourceServer(t, nSrc, 8)

	dgs := make([][]byte, nSrc)
	for i := range dgs {
		boot := core.Update{SourceID: laneQuery(i).SourceID, Seq: 0, Time: 0, Values: []float64{1}, Bootstrap: true}
		dgs[i] = updateDatagram(t, &boot)
		ts.processDatagram(dgs[i], netip.AddrPort{})
	}
	ts.eng.Quiesce()

	// Replaying each bootstrap's seq exercises the full rx path into the
	// owning shard's dedup drop. Warm several ring wraps first: each
	// slot's value buffer allocates once on first use.
	for wrap := 0; wrap < 4*nSrc; wrap++ {
		for i := 0; i < 2048; i++ { // half a ring: quiesce before it can fill and shed
			ts.processDatagram(dgs[i%nSrc], netip.AddrPort{})
		}
		ts.eng.Quiesce()
	}
	k := 0
	n := testing.AllocsPerRun(200, func() {
		ts.ins.rxBatch.Observe(1)
		ts.processDatagram(dgs[k%nSrc], netip.AddrPort{})
		k++
	})
	ts.eng.Quiesce()
	if n != 0 {
		t.Fatalf("multi-source rx path allocates %v/datagram, want 0", n)
	}
}

// TestUDPBatchedRxConcurrentAdvance exercises the receive path on real
// sockets: batched receive (recvmmsg where available), a sendmmsg-
// batched UDPBatcher feeding many sources, and shard-aware AdvanceAll
// ticking concurrently with ingest. Run under -race in CI, this is the
// reader-vs-AdvanceAll interleaving gate; the assertions pin that
// everything sent is applied, no filter corrupts, and the per-syscall
// batch histogram accounts for every datagram.
func TestUDPBatchedRxConcurrentAdvance(t *testing.T) {
	const nSrc, perSrc = 4, 200
	s, ts := newMultiSourceServer(t, nSrc, 8)
	go ts.Serve()

	b, err := DialUDPBatcherOpts(ts.Addr().String(), UDPBatcherOptions{FlushBytes: 200, SendBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() {
		defer adv.Done()
		seq := 0
		for {
			select {
			case <-stop:
				return
			default:
				s.AdvanceAll(seq)
				seq += 3
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	eng := s.Engine()
	sent := 0
	for seq := 0; seq < perSrc; seq++ {
		for i := 0; i < nSrc; i++ {
			u := core.Update{
				SourceID:  laneQuery(i).SourceID,
				Seq:       seq,
				Time:      float64(seq),
				Values:    []float64{float64(i) + 1.5*float64(seq)},
				Bootstrap: seq == 0,
			}
			if err := b.Send(u); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		// Bound sent-minus-applied so the socket buffer and rings never
		// overflow into loss on a slow machine.
		for eng.Applied()+1024 < uint64(sent) {
			runtime.Gosched()
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Applied() < uint64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d sent updates", eng.Applied(), sent)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	adv.Wait()

	for i := 0; i < nSrc; i++ {
		snap := nodeSnapshot(t, s, laneQuery(i).SourceID)
		assertFiniteState(t, snap)
		if snap.Seq < perSrc-1 {
			t.Fatalf("src %d stopped at seq %d, want >= %d", i, snap.Seq, perSrc-1)
		}
	}

	// Every datagram the reader received sits in exactly one batch.
	// Serve observes the batch before routing its datagrams, so once the
	// engine has applied everything both counts are final.
	batch := s.engIns.rxBatch.Snapshot()
	z := s.Streamz()
	if batch.Count == 0 || batch.Sum != z.Engine.DatagramsRx {
		t.Fatalf("rx batch histogram: %d batches summing to %d datagrams, datagrams_rx %d",
			batch.Count, batch.Sum, z.Engine.DatagramsRx)
	}
	var buf bytes.Buffer
	s.Telemetry().WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "dkf_udp_rx_batch_size") {
		t.Fatal("Prometheus exposition missing dkf_udp_rx_batch_size")
	}
}

// TestUDPBatcherSendBatchOne pins the compatibility shape: SendBatch 1
// transmits every sealed datagram immediately (the pre-batching
// behavior), and a tiny FlushBytes produces one update per datagram.
func TestUDPBatcherSendBatchOne(t *testing.T) {
	q := udpQuery()
	s, ts := newUDPPair(t, q)
	go ts.Serve()

	b, err := DialUDPBatcherOpts(ts.Addr().String(), UDPBatcherOptions{FlushBytes: 1, SendBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := s.InstallFor(q.SourceID); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for seq := 0; seq < n; seq++ {
		u := core.Update{SourceID: q.SourceID, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq == 0}
		if err := b.Send(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Applied() < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d", eng.Applied(), n)
		}
		time.Sleep(time.Millisecond)
	}
	// One update per datagram: the datagram counter must equal the
	// update count (plus nothing else on this socket).
	if z := s.Streamz(); z.Engine.DatagramsRx != n {
		t.Fatalf("datagrams_rx = %d, want %d (one update per datagram)", z.Engine.DatagramsRx, n)
	}
	snap := nodeSnapshot(t, s, q.SourceID)
	if snap.Seq != n-1 {
		t.Fatalf("final seq %d, want %d", snap.Seq, n-1)
	}
	if math.IsNaN(snap.X[0]) {
		t.Fatal("state corrupted")
	}
}
