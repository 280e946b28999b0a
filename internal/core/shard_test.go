package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"ipregel/internal/graph"
)

// shardedVersions enumerates the multi-shard configurations the parity
// tests sweep: both push combiners, scan and bypass, both partitioners,
// and 2 and 4 shards.
func shardedVersions() []Config {
	var out []Config
	for _, comb := range []Combiner{CombinerSpin, CombinerAtomic} {
		for _, bypass := range []bool{false, true} {
			for _, kind := range []Partition{PartitionRange, PartitionHash} {
				for _, shards := range []int{2, 4} {
					out = append(out, Config{
						Combiner:        comb,
						SelectionBypass: bypass,
						Partition:       kind,
						Shards:          shards,
						Threads:         4,
						CheckInvariants: true,
					})
				}
			}
		}
	}
	return out
}

// TestShardedMatchesSingleShard is the tentpole parity gate: every
// sharded configuration must produce values identical to the single-shard
// reference, under CheckInvariants, for a program with real cross-shard
// traffic (SSSP floods across the whole grid).
func TestShardedMatchesSingleShard(t *testing.T) {
	g := gridForCheckpoint(t)
	ref, refRep, err := Run(g, Config{Combiner: CombinerSpin, Threads: 4, CheckInvariants: true}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, cfg := range shardedVersions() {
		name := cfg.VersionName()
		e, rep, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Converged {
			t.Fatalf("%s: did not converge", name)
		}
		if rep.Supersteps != refRep.Supersteps {
			t.Fatalf("%s: %d supersteps, reference took %d", name, rep.Supersteps, refRep.Supersteps)
		}
		got := e.ValuesDense()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dist[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestShardedStepStats checks the per-shard accounting: ShardMessages has
// one entry per shard summing to Messages, cross-shard counts are bounded
// by the total, and the bypass runs report a per-shard next frontier that
// sums to NextFrontier.
func TestShardedStepStats(t *testing.T) {
	g := gridForCheckpoint(t)
	for _, bypass := range []bool{false, true} {
		cfg := Config{Combiner: CombinerAtomic, Shards: 4, Threads: 4, SelectionBypass: bypass, CheckInvariants: true}
		_, rep, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		sawMessages := false
		for si, s := range rep.Steps {
			if s.Messages == 0 {
				continue
			}
			sawMessages = true
			if len(s.ShardMessages) != 4 {
				t.Fatalf("bypass=%v step %d: ShardMessages len %d, want 4", bypass, si, len(s.ShardMessages))
			}
			var sum uint64
			for _, n := range s.ShardMessages {
				sum += n
			}
			if sum != s.Messages {
				t.Fatalf("bypass=%v step %d: shard messages sum %d != Messages %d", bypass, si, sum, s.Messages)
			}
			if s.CrossShardMessages > s.Messages {
				t.Fatalf("bypass=%v step %d: cross-shard %d > total %d", bypass, si, s.CrossShardMessages, s.Messages)
			}
			if im := s.ShardImbalance(); im < 1 {
				t.Fatalf("bypass=%v step %d: shard imbalance %v < 1", bypass, si, im)
			}
			if bypass {
				if len(s.ShardNextFrontier) != 4 {
					t.Fatalf("bypass step %d: ShardNextFrontier len %d, want 4", si, len(s.ShardNextFrontier))
				}
				var fsum int64
				for _, n := range s.ShardNextFrontier {
					fsum += n
				}
				if fsum != s.NextFrontier {
					t.Fatalf("bypass step %d: shard frontier sum %d != NextFrontier %d", si, fsum, s.NextFrontier)
				}
			}
		}
		if !sawMessages {
			t.Fatalf("bypass=%v: no superstep sent messages", bypass)
		}
		// The grid's SSSP flood necessarily crosses range-partition
		// boundaries at some superstep.
		var cross uint64
		for _, s := range rep.Steps {
			cross += s.CrossShardMessages
		}
		if cross == 0 {
			t.Fatalf("bypass=%v: no cross-shard messages on a 4-shard grid flood", bypass)
		}
	}
}

// TestSingleShardStatsStayFlat pins the equivalence guarantee on the
// accounting side: single-shard reports must not grow shard breakdowns.
func TestSingleShardStatsStayFlat(t *testing.T) {
	g := ringGraph(16, 0)
	_, rep, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2}, counterProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range rep.Steps {
		if s.ShardMessages != nil || s.ShardNextFrontier != nil || s.CrossShardMessages != 0 {
			t.Fatalf("step %d: single-shard report has shard fields: %+v", si, s)
		}
		if s.SkippedShards != 0 {
			t.Fatalf("step %d: single-shard report skipped shards: %+v", si, s)
		}
		if s.ShardImbalance() != 0 {
			t.Fatalf("step %d: single-shard ShardImbalance = %v", si, s.ShardImbalance())
		}
	}
}

// TestObserverSeesShardStats checks that the per-shard breakdown reaches
// observers (the telemetry layer feeds off the same callback).
func TestObserverSeesShardStats(t *testing.T) {
	g := gridForCheckpoint(t)
	var shardMsgs [][]uint64
	obs := ObserverFuncs{
		SuperstepEnd: func(_ int, s StepStats) { shardMsgs = append(shardMsgs, s.ShardMessages) },
	}
	e, err := New(g, Config{Combiner: CombinerSpin, Shards: 2, Threads: 2}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	e.AddObserver(obs)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(shardMsgs) == 0 {
		t.Fatal("observer saw no supersteps")
	}
	found := false
	for _, sm := range shardMsgs {
		if len(sm) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("observer never saw a 2-entry ShardMessages breakdown")
	}
}

// TestShardedCheckpointRoundTrip runs the sharded engine with
// checkpointing and restores every dump, requiring the resumed runs to
// land on the single-shard reference values — the sharded analogue of
// TestCheckpointRestoreContinuesIdentically.
func TestShardedCheckpointRoundTrip(t *testing.T) {
	g := gridForCheckpoint(t)
	ref, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, cfg := range []Config{
		{Combiner: CombinerSpin, Shards: 3, Threads: 2, CheckInvariants: true},
		{Combiner: CombinerAtomic, Shards: 4, Partition: PartitionHash, Threads: 2, CheckInvariants: true},
		{Combiner: CombinerSpin, Shards: 2, SelectionBypass: true, Threads: 2, CheckInvariants: true},
	} {
		name := cfg.VersionName()
		var dumps []*bytes.Buffer
		e, err := New(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
			Every: 3,
			Sink: func(int) (io.Writer, error) {
				buf := &bytes.Buffer{}
				dumps = append(dumps, buf)
				return buf, nil
			},
			VCodec: u32Codec{},
			MCodec: u32Codec{},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dumps) == 0 {
			t.Fatalf("%s: no checkpoints taken", name)
		}
		for di, dump := range dumps {
			restored, err := Restore(bytes.NewReader(dump.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatalf("%s: restore #%d: %v", name, di, err)
			}
			if _, err := restored.Run(); err != nil {
				t.Fatalf("%s: resumed run #%d: %v", name, di, err)
			}
			got := restored.ValuesDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: restore #%d: dist[%d] = %d, want %d", name, di, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardTopologyMismatch checks that restores across different shard
// layouts are rejected instead of silently scrambling local slots.
func TestShardTopologyMismatch(t *testing.T) {
	g := gridForCheckpoint(t)
	dump := func(cfg Config) []byte {
		var buf bytes.Buffer
		e, err := New(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
			Every:  2,
			Sink:   func(int) (io.Writer, error) { buf.Reset(); return &buf, nil },
			VCodec: u32Codec{},
			MCodec: u32Codec{},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("no checkpoint written")
		}
		return buf.Bytes()
	}
	flat := dump(Config{Combiner: CombinerSpin, Threads: 2})
	sharded3 := dump(Config{Combiner: CombinerSpin, Shards: 3, Threads: 2})
	cases := []struct {
		name    string
		data    []byte
		cfg     Config
		wantSub string
	}{
		{"flat-into-sharded", flat, Config{Combiner: CombinerSpin, Shards: 3, Threads: 2}, "shard topology mismatch"},
		{"sharded-into-flat", sharded3, Config{Combiner: CombinerSpin, Threads: 2}, "shard topology mismatch"},
		{"wrong-shard-count", sharded3, Config{Combiner: CombinerSpin, Shards: 4, Threads: 2}, "shard topology mismatch"},
		{"wrong-partition", sharded3, Config{Combiner: CombinerSpin, Shards: 3, Partition: PartitionHash, Threads: 2}, "partitioned by"},
	}
	for _, tc := range cases {
		_, err := Restore(bytes.NewReader(tc.data), g, tc.cfg, ssspProg(1), u32Codec{}, u32Codec{})
		if err == nil {
			t.Fatalf("%s: restore succeeded, want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestV1RestoreIntoShardedEngine checks the legacy flat v1 format scatters
// correctly onto a sharded engine (v1 predates shard topology, so it is
// accepted into any layout).
func TestV1RestoreIntoShardedEngine(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 2}
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.writeCheckpointV1(&buf, u32Codec{}, u32Codec{}); err != nil {
		t.Fatal(err)
	}
	scfg := Config{Combiner: CombinerSpin, Shards: 3, Threads: 2, CheckInvariants: true}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), g, scfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	want, got := e.ValuesDense(), restored.ValuesDense()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestShardConfigValidation pins the construction errors.
func TestShardConfigValidation(t *testing.T) {
	g := ringGraph(8, 0)
	prog := counterProgram(1)
	if _, err := New(g, Config{Shards: -1}, prog); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("negative shards: %v", err)
	}
	// CombinerPull × shards used to be rejected; the deprecated alias now
	// normalises to an inbox combiner with Config.Direction pull, so it
	// must construct (the pull mailbox itself stays single-shard).
	if e, err := New(g, Config{Shards: 2, Combiner: CombinerPull}, prog); err != nil {
		t.Fatalf("pull+shards should normalise to Direction pull: %v", err)
	} else if e.cfg.Direction != DirectionPull || e.cfg.Combiner == CombinerPull {
		t.Fatalf("pull+shards normalised to combiner=%v direction=%v, want inbox combiner + DirectionPull", e.cfg.Combiner, e.cfg.Direction)
	}
	cfg := Config{Shards: 4, Partition: PartitionHash}
	if name := cfg.VersionName(); !strings.Contains(name, "shards4") || !strings.Contains(name, "hash") {
		t.Fatalf("VersionName %q does not name the shard config", name)
	}
	if name := (Config{}).VersionName(); strings.Contains(name, "shards") {
		t.Fatalf("single-shard VersionName %q mentions shards", name)
	}
}

// twoIslandGraph returns a graph whose high-id half is a separate
// component from the low-id half: under a 2-shard range partition the
// second shard receives no traffic from a flood started in the first.
func twoIslandGraph() *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	const half = 32
	for i := 0; i < half-1; i++ { // chain 1..32
		b.AddEdge(graph.VertexID(1+i), graph.VertexID(2+i))
		b.AddEdge(graph.VertexID(2+i), graph.VertexID(1+i))
	}
	for i := 0; i < half; i++ { // ring 1001..1032
		b.AddEdge(graph.VertexID(1001+i), graph.VertexID(1001+(i+1)%half))
	}
	return b.MustBuild()
}

// TestFrontierAwareShardSkipping pins the skip decision: a shard whose
// component went quiescent (no active vertices, no inbound deliveries)
// must be skipped — visibly, via StepStats.SkippedShards — while the
// flood in the other component proceeds to the exact flat-engine result.
// The shard-activity audit (CheckInvariants) cross-checks the incremental
// active counts against a full flag scan at every barrier.
func TestFrontierAwareShardSkipping(t *testing.T) {
	g := twoIslandGraph()
	flatE, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2, CheckInvariants: true}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	flat := flatE.ValuesDense()
	for _, bypass := range []bool{false, true} {
		cfg := Config{
			Combiner:        CombinerSpin,
			Shards:          2,
			Threads:         2,
			SelectionBypass: bypass,
			CheckInvariants: true,
		}
		e, rep, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatalf("bypass=%v: %v", bypass, err)
		}
		var skipped int64
		for si, s := range rep.Steps {
			if s.SkippedShards < 0 || s.SkippedShards > 2 {
				t.Fatalf("bypass=%v step %d: SkippedShards = %d", bypass, si, s.SkippedShards)
			}
			skipped += s.SkippedShards
		}
		// The 31-superstep chain flood leaves the island shard idle
		// from superstep 1 on; it must be skipped, not rescanned.
		if skipped == 0 {
			t.Fatalf("bypass=%v: quiescent shard was never skipped", bypass)
		}
		got := e.ValuesDense()
		for i := range flat {
			if got[i] != flat[i] {
				t.Fatalf("bypass=%v: dist[%d] = %d, want %d", bypass, i, got[i], flat[i])
			}
		}
	}
}

// TestShardedEdgeBalanced checks the per-shard edge-balanced cuts path
// (range partitioner only) still produces correct results.
func TestShardedEdgeBalanced(t *testing.T) {
	g := gridForCheckpoint(t)
	ref, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, shards := range []int{2, 4} {
		cfg := Config{
			Combiner:        CombinerAtomic,
			Schedule:        ScheduleEdgeBalanced,
			Shards:          shards,
			Threads:         4,
			CheckInvariants: true,
		}
		e, _, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := e.ValuesDense()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: dist[%d] = %d, want %d", shards, i, got[i], want[i])
			}
		}
	}
}

// TestMoreShardsThanSlots exercises degenerate partitions where some
// shards own zero slots.
func TestMoreShardsThanSlots(t *testing.T) {
	g := ringGraph(3, 0)
	for _, kind := range []Partition{PartitionRange, PartitionHash} {
		cfg := Config{Combiner: CombinerSpin, Shards: 8, Partition: kind, Threads: 2, CheckInvariants: true}
		e, rep, err := Run(g, cfg, counterProgram(4))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.Converged {
			t.Fatalf("%v: did not converge", kind)
		}
		for i, v := range e.ValuesDense() {
			if v != 4 {
				t.Fatalf("%v: value[%d] = %d, want 4", kind, i, v)
			}
		}
	}
}
