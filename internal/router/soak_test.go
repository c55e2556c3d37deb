package router

// The multi-node acceptance soak: a real lsrouter process fronting three
// real lsserved replicas, each durable, with jobs streaming across six
// datasets while one replica is SIGKILLed and restarted mid-stream. The
// audit afterward is the cluster-level ledger contract: no acknowledged
// job lost, no idempotency key executed twice, and every completed job's
// output hash byte-identical to a direct in-process run on an
// identically-curated System.

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"lucidscript"
	"lucidscript/internal/gen"
	"lucidscript/internal/serve"
)

// soakJobs is the default job population; override with LSROUTER_SOAK_JOBS
// to stress harder (the CI cluster job does).
const soakJobs = 160

// soakDatasets is the shard count — enough that every replica owns at
// least one shard with near-certainty, so the kill always hits live work.
const soakDatasets = 6

func TestRouterKillRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	nJobs := soakJobs
	if env := os.Getenv("LSROUTER_SOAK_JOBS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad LSROUTER_SOAK_JOBS=%q", env)
		}
		nJobs = n
	}

	servedBin := buildBinary(t, "lucidscript/cmd/lsserved")
	routerBin := buildBinary(t, "lucidscript/cmd/lsrouter")
	workDir := t.TempDir()

	// Six datasets, each its own seeded corpus + CSV on disk for the
	// replica processes, plus an identically-curated in-process System per
	// dataset as the byte-identical oracle.
	datasetNames := make([]string, soakDatasets)
	datasetSpecs := make([]string, soakDatasets)
	oracles := make([]*lucidscript.System, soakDatasets)
	for d := 0; d < soakDatasets; d++ {
		seed := int64(42 + 1000*d)
		name := fmt.Sprintf("ds%d", d)
		corpusDir := filepath.Join(workDir, name, "corpus")
		dataCSV := filepath.Join(workDir, name, "data.csv")
		writeSoakCorpus(t, seed, corpusDir, dataCSV)
		datasetNames[d] = name
		datasetSpecs[d] = name + "=" + corpusDir + "," + dataCSV
		g := gen.New(seed)
		sys, err := lucidscript.NewSystem(g.Scripts(8), g.Sources(120), clusterOptions())
		if err != nil {
			t.Fatal(err)
		}
		oracles[d] = sys
	}

	// Three durable replicas, every one hosting all six datasets so any
	// shard can fail over to any survivor.
	replicas := make([]*replicaProc, 3)
	var replicaFlags []string
	for i := range replicas {
		name := fmt.Sprintf("r%d", i+1)
		port := soakFreePort(t)
		base := fmt.Sprintf("http://127.0.0.1:%d", port)
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-data-dir", filepath.Join(workDir, name, "jobs"),
			"-tau", "0.9", "-seq", "4", "-beam", "3", "-max-rows", "80",
			"-serve-workers", "2",
			"-queue-depth", strconv.Itoa(2 * nJobs),
			"-job-retention", "1h",
		}
		for _, spec := range datasetSpecs {
			args = append(args, "-dataset", spec)
		}
		replicas[i] = &replicaProc{name: name, base: base, args: args}
		replicas[i].cmd = startProc(t, servedBin, args, base)
		replicaFlags = append(replicaFlags, "-replica", name+"="+base)
	}

	routerPort := soakFreePort(t)
	routerBase := fmt.Sprintf("http://127.0.0.1:%d", routerPort)
	routerArgs := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", routerPort),
		"-probe-interval", "100ms",
		"-probe-timeout", "2s",
		"-rise", "1", "-fall", "2",
		"-retry-after", "500ms",
	}, replicaFlags...)
	routerProc := startProc(t, routerBin, routerArgs, routerBase)
	defer func() {
		routerProc.Process.Signal(syscall.SIGTERM)
		routerProc.Wait()
	}()
	client := NewClient(routerBase, nil)
	ctx := context.Background()
	waitClusterReady(t, client, len(replicas), 60*time.Second)

	// Stream keyed jobs round-robin across the datasets. Job i: dataset
	// i%soakDatasets, script i/soakDatasets (mod corpus) of that dataset's
	// generator — both recoverable from the key alone, which is what lets
	// the audit resubmit and re-verify any key.
	srcs := make([][]string, soakDatasets)
	for d := 0; d < soakDatasets; d++ {
		for _, sc := range gen.New(int64(7 + d)).Scripts(4) {
			srcs[d] = append(srcs[d], sc.Source())
		}
	}
	jobOf := func(i int) (dataset string, src string, key string) {
		d := i % soakDatasets
		return datasetNames[d], srcs[d][(i/soakDatasets)%len(srcs[d])], fmt.Sprintf("soak-%04d", i)
	}

	var mu sync.Mutex
	acked := map[string]string{} // namespaced job id → key
	failed := map[string]bool{}  // keys whose submission never got acked
	submitterDone := make(chan struct{})
	go func() {
		defer close(submitterDone)
		for i := 0; i < nJobs; i++ {
			ds, src, key := jobOf(i)
			st, err := client.Submit(ctx, ds, src, nil, key)
			mu.Lock()
			if err != nil {
				// The retry policy gave up inside the outage window. The
				// key was never acked to us; the audit resubmits it.
				failed[key] = true
			} else {
				acked[st.ID] = key
			}
			mu.Unlock()
		}
	}()

	// Pick the victim by shard ownership — the replica that owns dataset
	// ds0 is guaranteed to have live traffic — and SIGKILL it once a
	// meaningful slice of jobs has finished while submissions still flow.
	var doneBefore []serve.JobStatus
	killDeadline := time.Now().Add(60 * time.Second)
	for {
		page, err := client.AllJobs(ctx, serve.ListJobsQuery{State: serve.StateDone, Limit: 1000})
		if err == nil {
			doneBefore = page
		}
		if len(doneBefore) >= nJobs/10 || time.Now().After(killDeadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim := victimFor(t, replicas, doneBefore)
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Logf("killed %s with %d jobs done cluster-wide", victim.name, len(doneBefore))

	// Restart the victim on the same port and data dir while the stream
	// continues. The port may linger briefly after the kill, so retry.
	var restarted *exec.Cmd
	for attempt := 0; attempt < 5; attempt++ {
		restarted = tryStartProc(t, servedBin, victim.args, victim.base)
		if restarted != nil {
			break
		}
		time.Sleep(500 * time.Millisecond)
	}
	if restarted == nil {
		t.Fatalf("could not restart %s on its original port", victim.name)
	}
	defer func() {
		restarted.Process.Signal(syscall.SIGTERM)
		restarted.Wait()
	}()

	<-submitterDone
	mu.Lock()
	nAcked, nFailed := len(acked), len(failed)
	mu.Unlock()
	t.Logf("stream finished: %d/%d acked, %d gave up during the outage", nAcked, nJobs, nFailed)
	if nAcked == 0 {
		t.Fatal("no job was ever acknowledged — the cluster never took traffic")
	}

	// Settle: all replicas ready again, every job terminal.
	waitClusterReady(t, client, len(replicas), 120*time.Second)
	all := soakWaitTerminal(t, client, nAcked, 120*time.Second)

	// Audit 1 — no acked job lost, none listed twice.
	seen := map[string]int{}
	byID := map[string]serve.JobStatus{}
	for _, st := range all {
		seen[st.ID]++
		byID[st.ID] = st
	}
	for id, key := range acked {
		if seen[id] != 1 {
			t.Errorf("acked job %s (key %s) appears %d times after recovery, want exactly 1", id, key, seen[id])
		}
	}

	// Audit 2 — per idempotency key, at most one job may have done real
	// work: interrupted is the one terminal state that releases a key, so
	// counting non-interrupted jobs per key catches any duplicated
	// execution across the failover (>1) and any lost submission (0, for
	// keys the cluster acked).
	byKey := map[string][]serve.JobStatus{}
	for _, st := range all {
		if st.IdempotencyKey != "" {
			byKey[st.IdempotencyKey] = append(byKey[st.IdempotencyKey], st)
		}
	}
	resubmitted := 0
	for i := 0; i < nJobs; i++ {
		ds, src, key := jobOf(i)
		var live []serve.JobStatus
		for _, st := range byKey[key] {
			if st.State != serve.StateInterrupted {
				live = append(live, st)
			}
		}
		switch {
		case len(live) > 1:
			t.Errorf("key %s executed %d times across the failover: duplicated work", key, len(live))
		case len(live) == 0:
			// Interrupted (key released) or never landed: a keyed resubmit
			// must start fresh on the recovered ring and complete.
			st, err := client.Submit(ctx, ds, src, nil, key)
			if err != nil {
				t.Errorf("resubmit of released key %s: %v", key, err)
				continue
			}
			for _, old := range byKey[key] {
				if st.ID == old.ID {
					t.Errorf("resubmit of interrupted key %s replayed job %s instead of starting fresh", key, old.ID)
				}
			}
			final, err := client.Wait(ctx, st.ID, 5*time.Millisecond)
			if err != nil || final.State != serve.StateDone {
				t.Errorf("resubmitted key %s finished %+v (err %v)", key, final, err)
				continue
			}
			byKey[key] = append(byKey[key], *final)
			resubmitted++
		}
	}
	t.Logf("audit resubmitted %d released keys", resubmitted)

	// Audit 3 — byte-identical outputs: every done job's script and output
	// hash must equal the in-process oracle's for that exact submission,
	// no matter which replica ran it or whether it crossed the failover.
	checkedHashes := 0
	for i := 0; i < nJobs; i++ {
		_, src, key := jobOf(i)
		d := i % soakDatasets
		for _, st := range byKey[key] {
			if st.State != serve.StateDone {
				continue
			}
			if st.Result == nil {
				t.Errorf("done job %s has no result", st.ID)
				continue
			}
			want, err := oracles[d].Standardize(mustParse(t, src))
			if err != nil {
				t.Fatalf("oracle run for key %s: %v", key, err)
			}
			wantHash, err := oracles[d].OutputHash(want.Script)
			if err != nil {
				t.Fatalf("oracle hash for key %s: %v", key, err)
			}
			if st.Result.Script != want.Script.Source() {
				t.Errorf("job %s (key %s): routed script differs from oracle", st.ID, key)
			}
			if st.Result.OutputHash != wantHash {
				t.Errorf("job %s (key %s): output hash %q, oracle %q", st.ID, key, st.Result.OutputHash, wantHash)
			}
			checkedHashes++
		}
	}
	if checkedHashes == 0 {
		t.Error("hash audit covered zero done jobs")
	}

	// Audit 4 — jobs finished before the kill survived it byte-for-byte: a
	// drifted finish instant would mean the restart re-executed them.
	for _, want := range doneBefore {
		got, ok := byID[want.ID]
		if !ok {
			t.Errorf("pre-kill finished job %s lost across recovery", want.ID)
			continue
		}
		if got.State != serve.StateDone || got.Result == nil {
			t.Errorf("pre-kill finished job %s now %q (%s)", want.ID, got.State, got.Error)
			continue
		}
		if got.Result.OutputHash != want.Result.OutputHash {
			t.Errorf("job %s output hash drifted across the kill", want.ID)
		}
		if got.FinishedAt == nil || !got.FinishedAt.Equal(*want.FinishedAt) {
			t.Errorf("job %s finished_at %v → %v: it re-executed", want.ID, want.FinishedAt, got.FinishedAt)
		}
	}

	var interrupted, done int
	for _, st := range all {
		switch st.State {
		case serve.StateDone:
			done++
		case serve.StateInterrupted:
			interrupted++
		}
	}
	t.Logf("ledger after recovery: %d jobs, %d done, %d interrupted", len(all), done, interrupted)
}

// replicaProc is one spawned lsserved replica: identity, address, and the
// argv it can be restarted with.
type replicaProc struct {
	name string
	base string
	args []string
	cmd  *exec.Cmd
}

// victimFor picks the replica to kill: the one that has finished the most
// jobs so far, derived from the namespaced ids of already-done work, so
// the kill provably lands on a replica with traffic.
func victimFor(t *testing.T, replicas []*replicaProc, done []serve.JobStatus) *replicaProc {
	t.Helper()
	counts := map[string]int{}
	for _, st := range done {
		if name, _, ok := splitJobID(st.ID); ok {
			counts[name]++
		}
	}
	best := replicas[0]
	for _, rep := range replicas {
		if counts[rep.name] > counts[best.name] {
			best = rep
		}
	}
	return best
}

// mustParse parses a generated script source.
func mustParse(t *testing.T, src string) *lucidscript.Script {
	t.Helper()
	sc, err := lucidscript.ParseScript(src)
	if err != nil {
		t.Fatalf("parsing generated source: %v", err)
	}
	return sc
}

// writeSoakCorpus materializes one dataset's seeded corpus and CSV.
func writeSoakCorpus(t *testing.T, seed int64, corpusDir, dataCSV string) {
	t.Helper()
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	g := gen.New(seed)
	for i, sc := range g.Scripts(8) {
		path := filepath.Join(corpusDir, fmt.Sprintf("s%02d.ls", i))
		if err := os.WriteFile(path, []byte(sc.Source()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range g.Sources(120) {
		if err := f.WriteCSVFile(dataCSV); err != nil {
			t.Fatal(err)
		}
	}
}

// buildBinary compiles one command into the test's temp space.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startProc launches a server process and blocks until its /readyz
// answers 200; fatal if it does not come up.
func startProc(t *testing.T, bin string, args []string, base string) *exec.Cmd {
	t.Helper()
	cmd := tryStartProc(t, bin, args, base)
	if cmd == nil {
		t.Fatalf("%s did not become ready in time", filepath.Base(bin))
	}
	return cmd
}

// tryStartProc is startProc without the fatal: nil when the process did
// not answer /readyz within the window (e.g. its port was still held).
// Readiness, not liveness: /healthz answers while a replica still boots.
func tryStartProc(t *testing.T, bin string, args []string, base string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	cli := serve.NewClient(base, nil)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cmd.ProcessState != nil { // exited (port clash, bad flags)
			return nil
		}
		if cli.Readyz(context.Background()) == nil {
			return cmd
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// waitClusterReady polls the router's /healthz until it reports "ok",
// which the router emits only when every configured replica is ready.
func waitClusterReady(t *testing.T, client *Client, replicas int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		// The router's Health payload is a superset of the serve wire
		// shape; the status field is all the readiness check needs.
		if h, err := client.Healthz(context.Background()); err == nil && h.Status == "ok" {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("cluster did not reach %d ready replicas within %v", replicas, timeout)
}

// soakWaitTerminal polls the router listing until every job is terminal.
func soakWaitTerminal(t *testing.T, client *Client, want int, timeout time.Duration) []serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all, err := client.AllJobs(context.Background(), serve.ListJobsQuery{Limit: 1000})
		if err == nil {
			settled := len(all) >= want
			for _, st := range all {
				if !serve.TerminalState(st.State) {
					settled = false
					break
				}
			}
			if settled {
				return all
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("jobs did not settle within %v of recovery", timeout)
	return nil
}

// soakFreePort grabs an ephemeral TCP port for a spawned process.
func soakFreePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}
