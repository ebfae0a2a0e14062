// Package fragstore implements the process-wide, content-addressed
// fragment store of the two-level translation-cache design: translated
// superblocks as immutable, shareable artifacts.
//
// Translation is a pure function of (superblock bytes, translation
// configuration) — the co-designed VM contract keeps no hidden inputs —
// so a fragment can be addressed by the SHA-256 of a canonical encoding
// of exactly those two things and shared by every VM in the process.
// The store is sharded NumShards ways by the first key byte, each shard
// behind its own mutex, so concurrent VMs contend only when their keys
// collide in a shard. Do is a per-key singleflight: however many VMs
// race on a key, exactly one runs the translator; the rest block and
// share the result.
//
// Entries are immutable. Per-VM state — chain links, patched exits,
// call-site lists, the dual-address RAS, pristine shadow copies, cache
// layout — lives in each VM's tcache, which installs a private copy of
// the instruction stream (see CloneForInstall) and holds the store
// entry's read-only slices by reference. Invalidation, quarantine, and
// eviction therefore never touch the store: a VM that distrusts its
// copy of a fragment drops its own reference and the shared artifact
// stays pristine for everyone else.
//
// The store persists: Encode serializes every entry into a versioned,
// CRC-guarded byte stream (docs/FORMAT.md specifies it byte for byte)
// and Decode rebuilds a store from one. Loaded artifacts are never
// trusted: every entry passes iverify.Admit, the admission rule VM
// translation also applies — the static fragment verifier and,
// optionally, the symbolic equivalence prover (internal/semcheck)
// against its stored source superblock — before it becomes visible;
// corrupt or unprovable entries are dropped
// and counted, not installed.
package fragstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// NumShards is the number of independently locked shards. Keys map to
// shards by their first byte, which SHA-256 distributes uniformly.
const NumShards = 64

// Key is the content address of a translated fragment: the SHA-256 of
// the entry's canonical content record (config record ‖ superblock
// record, see docs/FORMAT.md §3-§4). Equal keys imply byte-identical
// translation inputs, and therefore — translation being pure —
// identical translation outputs.
type Key [sha256.Size]byte

// String renders the key as abbreviated hex, for logs and diagnostics.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// Config identifies the translation-configuration half of a content
// address: the translator's own Config plus the mode switch between the
// accumulator translator and the code-straightening translator.
type Config struct {
	// Translate carries the fields translate.Config.Fingerprint folds
	// into the address. Ignored fields of a straightening configuration
	// (form, accumulator count, memory fusion) are canonicalised to zero
	// so equivalent configurations share entries.
	Translate translate.Config

	// Straighten selects the code-straightening-only translator.
	Straighten bool
}

// configRecLen is the encoded size of a config record.
const configRecLen = 1 + translate.FingerprintLen

// record returns the canonical config record: a flags byte (bit 0 =
// straighten) followed by the translate.Config fingerprint, with the
// fields straightening ignores zeroed.
func (c Config) record() [configRecLen]byte {
	tc := c.Translate
	if c.Straighten {
		tc = translate.Config{Chain: tc.Chain}
	}
	fp := tc.Fingerprint()
	var r [configRecLen]byte
	if c.Straighten {
		r[0] = 1
	}
	copy(r[1:], fp[:])
	return r
}

// KeyOf computes the content address of translating sb under cfg, and
// returns the canonical content record the key hashes (the config
// record followed by the superblock record) for reuse by Do and the
// codec. It fails only when an instruction of the superblock has no
// canonical Alpha encoding; such a superblock cannot be content-
// addressed and the caller must translate it privately.
func KeyOf(sb *translate.Superblock, cfg Config) (Key, []byte, error) {
	rec := cfg.record()
	w := codec.NewWriter(configRecLen + superblockRecLen(sb))
	w.Raw(rec[:])
	if err := writeSuperblock(w, sb); err != nil {
		return Key{}, nil, err
	}
	return Key(sha256.Sum256(w.Bytes())), w.Bytes(), nil
}

// superblockRecLen sizes the superblock record for preallocation.
func superblockRecLen(sb *translate.Superblock) int {
	return 8 + 1 + 8 + 4 + len(sb.Insts)*sbInstRecLen
}

// sbInstRecLen is the encoded size of one superblock instruction record.
const sbInstRecLen = 8 + 4 + 1 + 8

// writeSuperblock appends the canonical superblock record: start PC,
// end kind, continuation PC, and one fixed-width record per collected
// instruction (PC, canonical Alpha word, taken flag, predicted indirect
// target). The record is the "superblock bytes" half of a content
// address, so it must be a pure function of the collected trace —
// alpha.Encode provides the canonical word spelling.
func writeSuperblock(w *codec.Writer, sb *translate.Superblock) error {
	w.U64(sb.StartPC)
	w.U8(byte(sb.End))
	w.U64(sb.NextPC)
	w.U32(uint32(len(sb.Insts)))
	for i := range sb.Insts {
		si := &sb.Insts[i]
		word, err := alpha.Encode(si.Inst)
		if err != nil {
			return fmt.Errorf("fragstore: superblock %#x inst %d: %w", sb.StartPC, i, err)
		}
		w.U64(si.PC)
		w.U32(uint32(word))
		w.U8(boolByte(si.Taken))
		w.U64(si.PredTarget)
	}
	return nil
}

// CloneForInstall returns a copy of res whose instruction slice is
// private to the caller. The instruction stream is the only part of a
// translation the per-VM cache mutates after install (exit patching and
// un-patching write the Kind and Frag fields in place); every other
// slice — PEI tables, recovery maps, strands, liveness — is read-only
// at runtime and stays shared with the store's immutable entry.
func CloneForInstall(res *translate.Result) *translate.Result {
	out := *res
	out.Insts = append([]ildp.Inst(nil), res.Insts...)
	return &out
}

// entry is one immutable store entry. res and err are written exactly
// once, before ready closes; readers synchronise on ready.
type entry struct {
	ready   chan struct{}
	res     *translate.Result
	err     error
	content []byte // config record ‖ superblock record, immutable
	creator any    // token of the session that translated it; nil for loaded entries
}

// shard is one lock domain of the store. The hit/miss counters are
// per-shard so the telemetry plane can expose how evenly the
// first-byte sharding spreads both occupancy and traffic.
type shard struct {
	mu sync.Mutex
	m  map[Key]*entry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// Store is the process-wide shared fragment store. A Store is safe for
// concurrent use by any number of VMs; the zero value is not usable —
// construct with New or Decode.
type Store struct {
	shards [NumShards]shard

	hits       atomic.Uint64
	misses     atomic.Uint64
	sharedHits atomic.Uint64
	loaded     atomic.Uint64
	dropped    atomic.Uint64
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = map[Key]*entry{}
	}
	return s
}

// shardOf maps a key to its shard by the first key byte.
func (s *Store) shardOf(k Key) *shard { return &s.shards[int(k[0])%NumShards] }

// Do returns the translation stored under key, translating it at most
// once per process: on a miss the calling goroutine inserts an
// in-flight entry and runs fn; concurrent callers of the same key block
// until the result is published and share it. content is the canonical
// content record KeyOf returned for key; caller is an opaque session
// token used only to classify hits (a hit on an entry some other
// session created — or one loaded from disk — counts as shared).
//
// The returned result is the store's immutable artifact: callers that
// install it must install a private copy (CloneForInstall). A failed fn
// publishes nothing — the in-flight entry is removed so a later attempt
// retries — and its error is returned to every caller that raced on it.
func (s *Store) Do(key Key, content []byte, caller any,
	fn func() (*translate.Result, error)) (res *translate.Result, hit, shared bool, err error) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, false, e.err
		}
		s.hits.Add(1)
		sh.hits.Add(1)
		shared = e.creator != caller
		if shared {
			s.sharedHits.Add(1)
		}
		return e.res, true, shared, nil
	}
	e := &entry{ready: make(chan struct{}), content: content, creator: caller}
	sh.m[key] = e
	sh.mu.Unlock()

	res, err = fn()
	if err != nil {
		e.err = err
		sh.mu.Lock()
		delete(sh.m, key)
		sh.mu.Unlock()
		close(e.ready)
		return nil, false, false, err
	}
	e.res = res
	close(e.ready)
	s.misses.Add(1)
	sh.misses.Add(1)
	return res, false, false, nil
}

// Get returns the translation stored under key, or nil. Unlike Do it
// never blocks on an in-flight translation and never counts a hit or
// miss; it exists for inspection and tests.
func (s *Store) Get(key Key) *translate.Result {
	sh := s.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-e.ready:
	default:
		return nil // still translating
	}
	if e.err != nil {
		return nil
	}
	return e.res
}

// Drop removes the entry stored under key, reporting whether one was
// present. Dropping is advisory: callers that already hold the entry's
// result keep a valid immutable artifact; only future lookups miss. The
// load path uses the same mechanism implicitly — corrupt or unprovable
// entries are never inserted — so Drop is needed only by external
// quarantine policies and tests.
func (s *Store) Drop(key Key) bool {
	sh := s.shardOf(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	if ok {
		s.dropped.Add(1)
	}
	return ok
}

// Len returns the number of completed entries in the store.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			select {
			case <-e.ready:
				if e.err == nil {
					n++
				}
			default:
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of the store's lifetime counters.
type Stats struct {
	// Entries is the number of completed entries currently stored.
	Entries int
	// Hits counts Do calls that found a completed or in-flight entry;
	// SharedHits the subset whose entry was created by a different
	// session (or loaded from disk). Misses counts Do calls that ran
	// the translator.
	Hits, Misses, SharedHits uint64
	// Loaded counts entries admitted by Decode after re-verification;
	// Dropped counts entries removed by Drop.
	Loaded, Dropped uint64
}

// String renders the snapshot as a one-line summary.
func (st Stats) String() string {
	return fmt.Sprintf("%d entries, %d hits (%d shared), %d misses, %d loaded, %d dropped",
		st.Entries, st.Hits, st.SharedHits, st.Misses, st.Loaded, st.Dropped)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:    s.Len(),
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		SharedHits: s.sharedHits.Load(),
		Loaded:     s.loaded.Load(),
		Dropped:    s.dropped.Load(),
	}
}

// ShardStat is the telemetry view of one store shard: how many
// completed entries it holds and how much singleflight traffic it has
// absorbed. Shards are addressed by the first key byte, so with
// SHA-256 keys both columns should stay near-uniform; a hot shard
// means contention on one mutex.
type ShardStat struct {
	// Shard is the shard index in [0, NumShards).
	Shard int `json:"shard"`
	// Entries is the number of completed entries currently stored.
	Entries int `json:"entries"`
	// Hits and Misses count Do calls resolved by (respectively run
	// through the translator into) this shard.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// ShardStats returns a per-shard occupancy and traffic snapshot, one
// row per shard in index order. Safe for concurrent use; each shard is
// read under its own lock, so the snapshot is per-shard (not globally)
// consistent.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, NumShards)
	for i := range s.shards {
		sh := &s.shards[i]
		n := 0
		sh.mu.Lock()
		for _, e := range sh.m {
			select {
			case <-e.ready:
				if e.err == nil {
					n++
				}
			default:
			}
		}
		sh.mu.Unlock()
		out[i] = ShardStat{
			Shard:   i,
			Entries: n,
			Hits:    sh.hits.Load(),
			Misses:  sh.misses.Load(),
		}
	}
	return out
}

// insertLoaded adds a decoded, re-verified entry (Decode's admission
// path). Loaded entries carry a nil creator, so any session's first hit
// on one counts as shared.
func (s *Store) insertLoaded(key Key, content []byte, res *translate.Result) {
	e := &entry{ready: make(chan struct{}), content: content, res: res}
	close(e.ready)
	sh := s.shardOf(key)
	sh.mu.Lock()
	if _, dup := sh.m[key]; !dup {
		sh.m[key] = e
		s.loaded.Add(1)
	}
	sh.mu.Unlock()
}
