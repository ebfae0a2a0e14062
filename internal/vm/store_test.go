package vm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/translate"
)

func storeCfg(store *fragstore.Store) Config {
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	cfg.Store = store
	return cfg
}

// TestStoreConcurrentSharing runs N goroutine-VMs of the same workload
// against one shared store: every unique superblock is translated
// exactly once in the whole process, every other VM shares the
// artifact, and every VM still computes the oracle's result.
func TestStoreConcurrentSharing(t *testing.T) {
	ref := refRun(t, torture)
	store := fragstore.New()

	const vms = 8
	got := make([]*VM, vms)
	var wg sync.WaitGroup
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := New(mem.New(), storeCfg(store))
			if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
				t.Error(err)
				return
			}
			if err := v.Run(50_000_000); err != nil {
				t.Errorf("vm %d: %v", i, err)
				return
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var hits, misses, shared, frags uint64
	for i, v := range got {
		compareState(t, fmt.Sprintf("vm%d", i), ref, v, resultsAddrs())
		hits += v.Stats.StoreHits
		misses += v.Stats.StoreMisses
		shared += v.Stats.StoreSharedHits
		frags += uint64(v.Stats.Fragments)
	}

	// Exactly one translation per unique superblock, process-wide.
	st := store.Stats()
	if int(st.Misses) != store.Len() {
		t.Errorf("store: %d misses for %d entries — some superblock translated twice",
			st.Misses, store.Len())
	}
	if misses != st.Misses || hits != st.Hits {
		t.Errorf("VM counters (%d misses, %d hits) disagree with store (%d, %d)",
			misses, hits, st.Misses, st.Hits)
	}
	if hits+misses != frags {
		t.Errorf("%d store lookups installed %d fragments", hits+misses, frags)
	}
	// The VMs run the same deterministic workload, so all but the first
	// translation of each superblock must be shared hits.
	if shared == 0 {
		t.Error("no shared hits across 8 VMs of the same workload")
	}
	if misses == 0 || hits == 0 {
		t.Errorf("degenerate run: %d misses, %d hits", misses, hits)
	}
}

// TestStoreResultsUnchanged pins that attaching a store changes no
// architected or translation statistics of a single run — only where
// the artifacts live.
func TestStoreResultsUnchanged(t *testing.T) {
	ref := refRun(t, torture)
	plain := vmRun(t, torture, func() Config { c := storeCfg(nil); return c }())
	stored := vmRun(t, torture, storeCfg(fragstore.New()))
	compareState(t, "store", ref, stored, resultsAddrs())

	if plain.Stats.Fragments != stored.Stats.Fragments ||
		plain.Stats.SrcInstsTranslated != stored.Stats.SrcInstsTranslated ||
		plain.Stats.TransVInsts != stored.Stats.TransVInsts ||
		plain.Stats.TranslateCost != stored.Stats.TranslateCost {
		t.Errorf("store changed run statistics: %+v vs %+v", plain.Stats, stored.Stats)
	}
	if stored.Stats.StoreMisses != uint64(stored.Stats.Fragments) {
		t.Errorf("cold run: %d misses for %d fragments — some translations bypassed the store",
			stored.Stats.StoreMisses, stored.Stats.Fragments)
	}
	// Every fragment carries its artifact's content address.
	tc := stored.TCache()
	for id := int32(0); int(id) < tc.Len(); id++ {
		f := tc.Frag(id)
		if f == nil {
			continue
		}
		if f.StoreKey == ([32]byte{}) {
			t.Errorf("fragment %d at %#x has no store provenance", id, f.VStart)
		}
		if f.Shared {
			t.Errorf("fragment %d marked shared in a single-VM cold run", id)
		}
	}
}

// TestStoreWarmStart is the acceptance criterion: save a store, load it
// into a fresh process-equivalent store (forcing the full codec and
// re-verification path), and run the same workload warm — zero
// retranslations, zero translate cost, every fragment a shared hit.
func TestStoreWarmStart(t *testing.T) {
	ref := refRun(t, torture)
	cold := fragstore.New()
	first := vmRun(t, torture, storeCfg(cold))
	if first.Stats.StoreMisses == 0 {
		t.Fatal("cold run translated nothing through the store")
	}

	enc := cold.Encode()
	warm, rep, err := fragstore.Decode(enc, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped() != 0 || rep.Loaded != cold.Len() {
		t.Fatalf("load report %v, want all %d entries", rep, cold.Len())
	}
	// Patching in the first VM must not have leaked into the artifacts:
	// a stored fragment referencing a session-private fragment ID would
	// have been dropped as malformed above, and the saved bytes must
	// round-trip exactly.
	if !bytes.Equal(warm.Encode(), enc) {
		t.Fatal("persisted store does not round-trip")
	}

	reg := metrics.NewRegistry()
	cfg := storeCfg(warm)
	cfg.Metrics = reg
	v := vmRun(t, torture, cfg)
	compareState(t, "warm", ref, v, resultsAddrs())

	if v.Stats.StoreMisses != 0 {
		t.Errorf("warm start ran %d translations, want 0", v.Stats.StoreMisses)
	}
	if v.Stats.TranslateCost != 0 {
		t.Errorf("warm start charged translate cost %d, want 0", v.Stats.TranslateCost)
	}
	if v.Stats.StoreHits == 0 || v.Stats.StoreHits != uint64(v.Stats.Fragments) {
		t.Errorf("warm start: %d hits for %d fragments", v.Stats.StoreHits, v.Stats.Fragments)
	}
	if v.Stats.StoreSharedHits != v.Stats.StoreHits {
		t.Errorf("warm start: %d of %d hits shared, want all (loaded artifacts)",
			v.Stats.StoreSharedHits, v.Stats.StoreHits)
	}
	for id := int32(0); int(id) < v.TCache().Len(); id++ {
		if f := v.TCache().Frag(id); f != nil && !f.Shared {
			t.Errorf("warm fragment %d at %#x not marked shared", id, f.VStart)
		}
	}

	v.Stats.Publish(reg)
	if reg.Counter("vm.store.hits").Load() != v.Stats.StoreHits {
		t.Error("vm.store.hits not published")
	}
	hitEvents := 0
	for _, e := range reg.Events() {
		if e.Kind == metrics.EventStoreHit {
			hitEvents++
			if e.Detail != "shared" {
				t.Errorf("store-hit event detail %q, want shared", e.Detail)
			}
		}
	}
	if hitEvents != int(v.Stats.StoreHits) {
		t.Errorf("%d store-hit events for %d hits", hitEvents, v.Stats.StoreHits)
	}
}

// TestStoreWarmResume runs a kill-and-resume schedule twice: pass 1
// cold against a fresh store, pass 2 replaying the identical schedule
// against the persisted (encode→decode) pass-1 store. Superblock
// formation is deterministic given the same execution and profile
// history, so every translation in pass 2 — in both the killed segment
// and the resumed one — must be a store hit: zero retranslations and
// zero translate cost across the preemption boundary.
func TestStoreWarmResume(t *testing.T) {
	ref := refRun(t, torture)

	runSchedule := func(store *fragstore.Store) *VM {
		v1 := New(mem.New(), storeCfg(store))
		if err := v1.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
			t.Fatal(err)
		}
		err := v1.Run(int64(ref.InstCount / 2))
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("first segment: %v, want budget preemption", err)
		}
		v2 := New(mem.New(), storeCfg(store))
		v2.Restore(v1.Checkpoint())
		if err := v2.Run(0); err != nil {
			t.Fatalf("resumed segment: %v", err)
		}
		return v2
	}

	cold := fragstore.New()
	first := runSchedule(cold)
	compareState(t, "cold resume", ref, first, resultsAddrs())
	// Stats survive the checkpoint, so the resumed VM's counters cover
	// the whole schedule. The resumed segment's cold cache may re-form
	// superblocks the killed one already published (store hits), but
	// each is translated once.
	if first.Stats.StoreMisses == 0 || int(first.Stats.StoreMisses) != cold.Len() {
		t.Fatalf("cold pass: %d misses for %d store entries — schedule should translate everything once",
			first.Stats.StoreMisses, cold.Len())
	}

	warm, rep, err := fragstore.Decode(cold.Encode(), fragstore.LoadOptions{SemCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped() != 0 {
		t.Fatalf("persisted kill-resume store dropped entries on load: %v", rep)
	}

	second := runSchedule(warm)
	compareState(t, "warm resume", ref, second, resultsAddrs())
	if second.Stats.StoreMisses != 0 {
		t.Errorf("warm replay ran %d translations, want 0", second.Stats.StoreMisses)
	}
	if second.Stats.TranslateCost != 0 {
		t.Errorf("warm replay charged translate cost %d, want 0", second.Stats.TranslateCost)
	}
	if lookups := first.Stats.StoreMisses + first.Stats.StoreHits; second.Stats.StoreHits != lookups {
		t.Errorf("warm replay: %d hits for %d cold store lookups", second.Stats.StoreHits, lookups)
	}
	if got := warm.Stats().Misses; got != 0 {
		t.Errorf("warm store recorded %d misses", got)
	}
}

// TestStoreAcrossConfigs pins that differently-configured VMs sharing
// one store never share artifacts: every (form, chain, straighten)
// combination addresses disjoint entries, and each still matches the
// oracle.
func TestStoreAcrossConfigs(t *testing.T) {
	ref := refRun(t, torture)
	store := fragstore.New()

	entriesBefore := 0
	for _, c := range []struct {
		name       string
		form       ildp.Form
		straighten bool
		chain      translate.ChainMode
	}{
		{"modified/ras", ildp.Modified, false, translate.SWPredRAS},
		{"basic/nopred", ildp.Basic, false, translate.NoPred},
		{"straightened", 0, true, translate.SWPredRAS},
	} {
		cfg := storeCfg(store)
		cfg.Form = c.form
		cfg.Straighten = c.straighten
		cfg.Chain = c.chain
		v := vmRun(t, torture, cfg)
		compareState(t, c.name, ref, v, resultsAddrs())
		if v.Stats.StoreHits != 0 {
			t.Errorf("%s: %d cross-config store hits, want 0", c.name, v.Stats.StoreHits)
		}
		if store.Len() <= entriesBefore {
			t.Errorf("%s: added no store entries", c.name)
		}
		entriesBefore = store.Len()
	}
}

// TestStoreBypassedUnderInjection pins the chaos contract: a VM with a
// fault injector attached never consults the store — the injector's
// draw sequence (and thus every chaos suite) is bit-identical with and
// without a store, and corrupt artifacts cannot become visible to
// other sessions.
func TestStoreBypassedUnderInjection(t *testing.T) {
	store := fragstore.New()
	cfg := storeCfg(store)
	cfg.Verify = true
	cfg.Paranoid = true
	cfg.SelfHeal = true
	cfg.Faults = &faultinject.Config{Seed: 7}

	v := vmRun(t, torture, cfg)
	if v.Stats.StoreHits != 0 || v.Stats.StoreMisses != 0 {
		t.Errorf("injected VM consulted the store: %d hits, %d misses",
			v.Stats.StoreHits, v.Stats.StoreMisses)
	}
	if store.Len() != 0 {
		t.Errorf("injected VM published %d artifacts into the shared store", store.Len())
	}
}
