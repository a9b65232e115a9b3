package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"metaopt/internal/obs"
	"metaopt/unroll"
)

var (
	predsOnce sync.Once
	preds     []*unroll.Predictor
	predsErr  error
)

// testPredictors trains a handful of distinct model versions (different
// algorithms → different fingerprints) shared by every test.
func testPredictors(t *testing.T) []*unroll.Predictor {
	t.Helper()
	predsOnce.Do(func() {
		c, err := unroll.GenerateCorpus(7, 0.05)
		if err != nil {
			predsErr = err
			return
		}
		ds, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 3})
		if err != nil {
			predsErr = err
			return
		}
		for _, alg := range []unroll.Algorithm{unroll.NearNeighbor, unroll.DecisionTree, unroll.Regress, unroll.BoostedTree} {
			p, err := unroll.Train(ds, unroll.TrainOptions{Algorithm: alg, Seed: 3})
			if err != nil {
				predsErr = fmt.Errorf("train %s: %w", alg, err)
				return
			}
			preds = append(preds, p)
		}
	})
	if predsErr != nil {
		t.Fatal(predsErr)
	}
	return preds
}

func TestInsertResolvePromoteEvict(t *testing.T) {
	ps := testPredictors(t)
	r := New(Config{})

	m0, err := r.Insert(ps[0], "a.model", "stable", false)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Default(); d == nil || d.Fingerprint() != m0.Fingerprint() {
		t.Fatal("first insert did not become the default")
	}
	m1, err := r.Insert(ps[1], "b.model", "canary", false)
	if err != nil {
		t.Fatal(err)
	}

	// Resolve by alias, full fingerprint, unique prefix, and default.
	for _, ref := range []string{"canary", m1.Fingerprint(), m1.Fingerprint()[:12]} {
		got, err := r.Resolve(ref)
		if err != nil || got.Fingerprint() != m1.Fingerprint() {
			t.Fatalf("Resolve(%q) = %v, %v", ref, got, err)
		}
	}
	if got, err := r.Resolve(""); err != nil || got.Fingerprint() != m0.Fingerprint() {
		t.Fatalf("Resolve(\"\") = %v, %v", got, err)
	}
	if _, err := r.Resolve("nonesuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(nonesuch) = %v, want ErrNotFound", err)
	}
	if _, err := r.Resolve(m1.Fingerprint()[:4]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("short prefix must not resolve: %v", err)
	}

	// Promotion swaps the default atomically; the old default stays
	// resident and evictable.
	if _, err := r.Promote("canary"); err != nil {
		t.Fatal(err)
	}
	if d := r.Default(); d.Fingerprint() != m1.Fingerprint() {
		t.Fatal("promote did not swap the default")
	}
	if _, err := r.Evict("canary"); !errors.Is(err, ErrDefault) {
		t.Fatalf("evicting the default must fail, got %v", err)
	}
	if _, err := r.Evict("stable"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve("stable"); !errors.Is(err, ErrNotFound) {
		t.Fatal("evicted version (and its alias) must be gone")
	}
	if len(r.List()) != 1 {
		t.Fatalf("Len = %d, want 1", len(r.List()))
	}
}

func TestLRUBoundPrefersUnpinned(t *testing.T) {
	ps := testPredictors(t)
	r := New(Config{MaxModels: 2})
	m0, _ := r.Insert(ps[0], "", "", false) // default: never LRU-evicted
	m1, _ := r.Insert(ps[1], "", "", true)  // pinned: never LRU-evicted
	m2, _ := r.Insert(ps[2], "", "", false) // unpinned: the only candidate
	if len(r.List()) != 3 {
		// Nothing evictable yet: default + pinned + the newcomer overflow.
		t.Fatalf("Len = %d, want 3 (protected overflow)", len(r.List()))
	}
	if _, err := r.Insert(ps[3], "", "", false); err != nil {
		t.Fatal(err)
	}
	// ps[3] arrived; m2 was the least-recently-used unpinned non-default.
	if _, err := r.Resolve(m2.Fingerprint()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU should have evicted %s: %v", m2.Fingerprint()[:12], err)
	}
	for _, keep := range []*Model{m0, m1} {
		if _, err := r.Resolve(keep.Fingerprint()); err != nil {
			t.Fatalf("protected version evicted: %v", err)
		}
	}
}

func TestAliasRebindMovesName(t *testing.T) {
	ps := testPredictors(t)
	r := New(Config{})
	r.Insert(ps[0], "", "canary", false)
	m1, _ := r.Insert(ps[1], "", "canary", false)
	got, err := r.Resolve("canary")
	if err != nil || got.Fingerprint() != m1.Fingerprint() {
		t.Fatalf("rebound alias resolves to %v, %v", got, err)
	}
	for _, snap := range r.List() {
		if snap.Model.Fingerprint() == ps[0].Fingerprint() && len(snap.Aliases) != 0 {
			t.Fatalf("old version kept the moved alias: %v", snap.Aliases)
		}
	}
}

// TestPromoteEvictConcurrent hammers promote/evict/resolve/insert from
// many goroutines: the registry must stay internally consistent and the
// default must always be resident. Run under -race.
func TestPromoteEvictConcurrent(t *testing.T) {
	ps := testPredictors(t)
	r := New(Config{MaxModels: 3})
	for i, p := range ps[:3] {
		if _, err := r.Insert(p, "", fmt.Sprintf("v%d", i), false); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				ref := fmt.Sprintf("v%d", (g+i)%3)
				switch g % 4 {
				case 0:
					r.Promote(ref)
				case 1:
					r.Evict(ref) // often fails (default/absent); must never corrupt
				case 2:
					if _, err := r.Insert(ps[(g+i)%3], "", ref, false); err != nil {
						t.Error(err)
					}
				default:
					r.Resolve(ref)
				}
				if d := r.Default(); d == nil {
					t.Error("default became nil mid-churn")
				}
			}
		}(g)
	}
	wg.Wait()
	// The default must still resolve through the registry.
	d := r.Default()
	if d == nil {
		t.Fatal("no default after churn")
	}
	if _, err := r.Resolve(d.Fingerprint()); err != nil {
		t.Fatalf("default not resident after churn: %v", err)
	}
}

func TestManifestRestore(t *testing.T) {
	ps := testPredictors(t)
	dir := t.TempDir()
	paths := make([]string, 3)
	for i, p := range ps[:3] {
		paths[i] = filepath.Join(dir, fmt.Sprintf("m%d.model", i))
		if err := p.SaveFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	state := filepath.Join(dir, "registry.json")

	r := New(Config{StatePath: state})
	for i, p := range paths {
		pin := i == 2
		if _, err := r.Load(p, fmt.Sprintf("v%d", i), pin); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Promote("v1"); err != nil {
		t.Fatal(err)
	}

	// A fresh registry restores residency, aliases, pins, and the default.
	r2 := New(Config{StatePath: state})
	n, err := r2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restored %d models, want 3", n)
	}
	if d := r2.Default(); d == nil || d.Fingerprint() != ps[1].Fingerprint() {
		t.Fatal("default not restored")
	}
	for i := range paths {
		if _, err := r2.Resolve(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("alias v%d not restored: %v", i, err)
		}
	}
	var pinned bool
	for _, snap := range r2.List() {
		if snap.Model.Fingerprint() == ps[2].Fingerprint() {
			pinned = snap.Pinned
		}
	}
	if !pinned {
		t.Fatal("pin not restored")
	}

	// A deleted artifact is skipped, not fatal.
	os.Remove(paths[0])
	r3 := New(Config{StatePath: state})
	if n, err := r3.Restore(); err != nil || n != 2 {
		t.Fatalf("restore with missing artifact: n=%d err=%v, want 2, nil", n, err)
	}
}

// TestRestoreCorruptStateDegradesToEmpty: a garbage state file must not
// abort the boot — Restore counts the corruption, logs, and comes up as an
// empty but fully usable registry.
func TestRestoreCorruptStateDegradesToEmpty(t *testing.T) {
	ps := testPredictors(t)
	state := filepath.Join(t.TempDir(), "registry.json")
	if err := os.WriteFile(state, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := obs.C("registry.state_corrupt").Value()
	r := New(Config{StatePath: state})
	n, err := r.Restore()
	if err != nil {
		t.Fatalf("corrupt state failed the boot: %v", err)
	}
	if n != 0 {
		t.Fatalf("restored %d models from garbage, want 0", n)
	}
	if got := obs.C("registry.state_corrupt").Value() - before; got != 1 {
		t.Fatalf("corruption counter moved by %d, want 1", got)
	}

	// The empty registry is fully usable — and persisting new state heals
	// the corrupt file for the next boot.
	if _, err := r.Insert(ps[0], "", "stable", false); err != nil {
		t.Fatalf("registry unusable after degraded restore: %v", err)
	}
	if d := r.Default(); d == nil {
		t.Fatal("no default after insert into degraded registry")
	}

	// An unreadable (as opposed to corrupt) state file is still an error:
	// degrading there would silently drop real state.
	if _, err := os.Stat(state); err == nil {
		unreadable := filepath.Join(t.TempDir(), "dir-not-file")
		if err := os.MkdirAll(filepath.Join(unreadable, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		r2 := New(Config{StatePath: unreadable})
		if _, err := r2.Restore(); err == nil {
			t.Fatal("reading a directory as state must fail, not degrade")
		}
	}
}
