// Fan-in mode: drive N simulated sources against one in-process server
// over the connectionless datagram transport and report aggregate
// ingest throughput plus per-source memory — the 100k-source scale
// experiment behind BENCH_INGEST.json. Simulated sources are plain
// sequence counters (no mirror filters): the workload isolates what the
// server's ingest engine costs, not what a source-side DKF costs.
//
// The per-connection TCP model is deliberately absent here: at 100k
// sources it cannot even be constructed on a default ulimit (two file
// descriptors per in-process connection), which is the scaling wall
// this mode exists to demonstrate. The controlled same-body comparison
// against TCP lives in BenchmarkIngestFanIn.
package main

import (
	"fmt"
	"runtime"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/stream"
)

type fanInConfig struct {
	sources   int
	n         int // updates per source, including the bootstrap
	shards    int
	ring      int
	rxBatch   int  // datagrams per receive syscall (0 = default)
	sendBatch int  // sealed datagrams per send syscall (0 = default)
	dgram     bool // one update per datagram (per-source wire shape)
}

// heapInUse forces a collection and returns the live heap, so deltas
// across setup phases attribute memory to what the phase created.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func runFanIn(cfg fanInConfig) error {
	if cfg.sources <= 0 || cfg.n <= 0 {
		return fmt.Errorf("fanin: -sources and -n must be positive")
	}
	base := heapInUse()

	s := dsms.NewServer(dsms.DefaultCatalog(1))
	ids := make([]string, cfg.sources)
	for i := range ids {
		ids[i] = fmt.Sprintf("src-%06d", i)
		q := stream.Query{ID: "q-" + ids[i], SourceID: ids[i], Delta: 1e-6, Model: "constant"}
		if err := s.Register(q); err != nil {
			return err
		}
	}
	us, err := dsms.NewUDPServer(s, "127.0.0.1:0", dsms.UDPServerOptions{
		RxBatch: cfg.rxBatch,
		Engine:  dsms.EngineOptions{Shards: cfg.shards, RingSize: cfg.ring},
	})
	if err != nil {
		return err
	}
	go us.Serve()
	defer us.Close()
	eng := s.Engine()
	defer eng.Close()
	registered := heapInUse()

	flush := 0
	if cfg.dgram {
		// One update per sealed datagram: the wire shape a fleet of
		// per-source UDPAgents produces, where receive batching is the
		// whole game (an MTU-packed batcher already amortizes the rx
		// syscall across ~28 updates).
		flush = 1
	}
	batcher, err := dsms.DialUDPBatcherOpts(us.Addr().String(), dsms.UDPBatcherOptions{FlushBytes: flush, SendBatch: cfg.sendBatch})
	if err != nil {
		return err
	}
	defer batcher.Close()

	total := cfg.sources * cfg.n
	fmt.Printf("fan-in: %d sources x %d updates = %d total, %d shard(s), dgram=%v\n",
		cfg.sources, cfg.n, total, eng.Shards(), cfg.dgram)

	// Datagrams are fire-and-forget, so the producer must flow-control
	// itself: bound in-flight updates against the engine's APPLIED count.
	// Applied (not offered) is the right watermark — it bounds occupancy
	// of every queue on the path, the kernel socket buffer and the SPSC
	// ring alike, so neither can overflow into silent loss no matter how
	// slow the shard worker is relative to the socket reader.
	const window = 2048
	start := time.Now()
	u := core.Update{Values: make([]float64, 1)}
	for i := 0; i < total; i++ {
		src := i % cfg.sources
		seq := i / cfg.sources
		u.SourceID = ids[src]
		u.Seq = seq
		u.Time = float64(seq)
		u.Values[0] = float64(src) + float64(seq)
		u.Bootstrap = seq == 0
		if err := batcher.Send(u); err != nil {
			return err
		}
		if i&(window-1) == window-1 {
			for eng.Applied()+window < uint64(i+1) {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	if err := batcher.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.Applied() < uint64(total)*99/100 {
		eng.Quiesce()
		if time.Now().After(deadline) {
			return fmt.Errorf("fanin: stalled at %d/%d applied", eng.Applied(), total)
		}
		time.Sleep(200 * time.Microsecond)
	}
	eng.Quiesce()
	elapsed := time.Since(start)
	warm := heapInUse()

	applied, dropped := uint64(0), uint64(0)
	for _, st := range eng.Stats() {
		applied += st.Applied
		dropped += st.Dropped
	}
	z := s.Streamz().Engine
	fmt.Printf("elapsed: %v  aggregate: %.0f updates/sec  (%.0f ns/update)\n",
		elapsed.Round(time.Millisecond),
		float64(applied)/elapsed.Seconds(),
		float64(elapsed.Nanoseconds())/float64(applied))
	fmt.Printf("applied: %d/%d  ring-shed: %d", applied, total, dropped)
	if z != nil {
		fmt.Printf("  datagrams: %d  frames: %d  dedup: %d", z.DatagramsRx, z.FramesRx, engineDedup(z))
	}
	fmt.Println()
	fmt.Printf("memory: %.0f B/source registered, %.0f B/source warm (%d sources, heap %d -> %d -> %d KiB)\n",
		float64(registered-base)/float64(cfg.sources),
		float64(warm-base)/float64(cfg.sources),
		cfg.sources, base>>10, registered>>10, warm>>10)
	if dropped > 0 {
		return fmt.Errorf("fanin: ring shed %d updates; raise -ring or lower the rate", dropped)
	}
	return nil
}

func engineDedup(z *dsms.EngineStreamz) int64 {
	var n int64
	for _, sh := range z.PerShard {
		n += sh.Dedup
	}
	return n
}
