package interp

import (
	"math/rand"
	"testing"
)

func draws(src rand.Source, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63()
	}
	return out
}

func equalDraws(t *testing.T, what string, got, want []int64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestReplaySourceMatchesStdlibStream(t *testing.T) {
	equalDraws(t, "fresh source", draws(newReplaySource(42), 50), draws(rand.NewSource(42), 50))

	r := newReplaySource(1)
	draws(r, 3)
	r.Seed(42)
	equalDraws(t, "after Seed", draws(r, 50), draws(rand.NewSource(42), 50))
	if r.n != 50 {
		t.Fatalf("n = %d after 50 draws since Seed", r.n)
	}
}

func TestReplaySourceForkAfterDrawsContinuesStream(t *testing.T) {
	want := draws(rand.NewSource(9), 20)
	for _, k := range []int{1, 7, 13} {
		parent := newReplaySource(9)
		equalDraws(t, "parent prefix", draws(parent, k), want[:k])
		child := parent.fork()
		equalDraws(t, "fork", draws(child, 20-k), want[k:])
		// The fork is independent: the parent's stream is not advanced.
		equalDraws(t, "parent after fork", draws(parent, 20-k), want[k:])
	}
}

func TestReplaySourceForkBeforeDrawIsFresh(t *testing.T) {
	parent := newReplaySource(5)
	child := parent.fork()
	if child.src != nil {
		t.Fatal("a draw-free fork built its source eagerly")
	}
	equalDraws(t, "fork before any draw", draws(child, 20), draws(rand.NewSource(5), 20))
	if parent.src != nil || parent.n != 0 {
		t.Fatal("drawing from the fork touched the parent")
	}
}

var (
	forkSink   *Env
	replaySink *replaySource
)

func TestDrawFreeEnvForkAllocatesNoRNGTable(t *testing.T) {
	env := newEnv(nil, 3, nil, nil)
	free := testing.AllocsPerRun(50, func() { forkSink = env.fork() })
	if forkSink.rsrc.src != nil {
		t.Fatal("draw-free fork seeded a source")
	}
	env.rng.Int63()
	drawn := testing.AllocsPerRun(50, func() { forkSink = env.fork() })
	// A fork after a draw replays a fresh table; one before any draw must
	// not allocate it.
	if free >= drawn {
		t.Fatalf("draw-free fork allocs = %v, not below %v of a fork after a draw", free, drawn)
	}
	r := newReplaySource(3)
	if got := testing.AllocsPerRun(50, func() { replaySink = r.fork() }); got != 1 {
		t.Fatalf("draw-free replaySource fork allocates %v objects, want only its struct", got)
	}
}
