package fragstore_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

func mustEnc(w alpha.Word, err error) alpha.Word {
	if err != nil {
		panic(err)
	}
	return w
}

// testSB builds a max-size-terminated superblock from raw words.
func testSB(base uint64, words ...alpha.Word) *translate.Superblock {
	sb := &translate.Superblock{StartPC: base, End: translate.EndMaxSize}
	pc := base
	for _, w := range words {
		sb.Insts = append(sb.Insts, translate.SBInst{PC: pc, Inst: alpha.Decode(w)})
		pc += alpha.InstBytes
	}
	sb.NextPC = pc
	return sb
}

// aluSB is a pure dependence chain.
func aluSB() *translate.Superblock {
	return testSB(0x10000,
		mustEnc(alpha.EncodeOperateR(alpha.OpADDQ, 0, 1, 2)),
		mustEnc(alpha.EncodeOperateL(alpha.OpSUBQ, 2, 3, 3)),
		mustEnc(alpha.EncodeOperateR(alpha.OpXOR, 3, 0, 4)),
		mustEnc(alpha.EncodeOperateL(alpha.OpADDQ, 4, 9, 5)),
	)
}

// memSB is a load/compute/store loop body ending in a taken backward
// branch.
func memSB() *translate.Superblock {
	sb := testSB(0x20000,
		mustEnc(alpha.EncodeMem(alpha.OpLDQ, 1, 2, 0)),
		mustEnc(alpha.EncodeOperateR(alpha.OpADDQ, 0, 1, 0)),
		mustEnc(alpha.EncodeMem(alpha.OpSTQ, 0, 2, 8)),
		mustEnc(alpha.EncodeOperateL(alpha.OpSUBQ, 3, 1, 3)),
		mustEnc(alpha.EncodeBranch(alpha.OpBNE, 3, -5)),
	)
	sb.End = translate.EndBackward
	sb.Insts[len(sb.Insts)-1].Taken = true
	sb.NextPC = sb.StartPC + uint64(len(sb.Insts))*alpha.InstBytes
	return sb
}

// cmovSB exercises conditional moves.
func cmovSB() *translate.Superblock {
	return testSB(0x30000,
		mustEnc(alpha.EncodeOperateL(alpha.OpCMPLT, 4, 10, 5)),
		mustEnc(alpha.EncodeOperateR(alpha.OpCMOVNE, 5, 6, 4)),
		mustEnc(alpha.EncodeOperateR(alpha.OpXOR, 4, 7, 4)),
	)
}

func accCfg(form ildp.Form, chain translate.ChainMode) fragstore.Config {
	return fragstore.Config{Translate: translate.Config{
		Form: form, NumAcc: ildp.DefaultAccumulators, Chain: chain,
	}}
}

func straightCfg() fragstore.Config {
	return fragstore.Config{
		Straighten: true,
		Translate:  translate.Config{Chain: translate.SWPredRAS},
	}
}

// translateFn returns the Do callback for cfg.
func translateFn(sb *translate.Superblock, cfg fragstore.Config) func() (*translate.Result, error) {
	return func() (*translate.Result, error) {
		if cfg.Straighten {
			return translate.Straighten(sb, cfg.Translate.Chain)
		}
		return translate.Translate(sb, cfg.Translate)
	}
}

// put translates sb under cfg through the store and returns its key.
func put(t testing.TB, s *fragstore.Store, sb *translate.Superblock, cfg fragstore.Config) fragstore.Key {
	t.Helper()
	key, content, err := fragstore.KeyOf(sb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Do(key, content, t, translateFn(sb, cfg)); err != nil {
		t.Fatal(err)
	}
	return key
}

// populate fills a store with a mix of accumulator and straightened
// translations across forms and chain modes.
func populate(t testing.TB) *fragstore.Store {
	t.Helper()
	s := fragstore.New()
	for _, sb := range []*translate.Superblock{aluSB(), memSB(), cmovSB()} {
		put(t, s, sb, accCfg(ildp.Modified, translate.SWPredRAS))
		put(t, s, sb, accCfg(ildp.Basic, translate.NoPred))
		put(t, s, sb, straightCfg())
	}
	return s
}

func TestKeyOf(t *testing.T) {
	sb := aluSB()
	cfg := accCfg(ildp.Modified, translate.SWPredRAS)

	k1, c1, err := fragstore.KeyOf(sb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, c2, err := fragstore.KeyOf(aluSB(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || !bytes.Equal(c1, c2) {
		t.Fatal("KeyOf is not deterministic")
	}

	if k3, _, _ := fragstore.KeyOf(memSB(), cfg); k3 == k1 {
		t.Fatal("different superblocks share a key")
	}
	other := cfg
	other.Translate.Form = ildp.Basic
	if k4, _, _ := fragstore.KeyOf(sb, other); k4 == k1 {
		t.Fatal("different forms share a key")
	}
	other = cfg
	other.Translate.Chain = translate.NoPred
	if k5, _, _ := fragstore.KeyOf(sb, other); k5 == k1 {
		t.Fatal("different chain modes share a key")
	}
	if k6, _, _ := fragstore.KeyOf(sb, straightCfg()); k6 == k1 {
		t.Fatal("straightened and accumulator translations share a key")
	}

	// Straightening ignores form, accumulator count, and memory fusion:
	// those fields must be canonicalised out of the address.
	sc1 := straightCfg()
	sc2 := straightCfg()
	sc2.Translate.Form = ildp.Basic
	sc2.Translate.NumAcc = ildp.MaxAccumulators
	sc2.Translate.FuseMemOps = true
	ks1, _, _ := fragstore.KeyOf(sb, sc1)
	ks2, _, _ := fragstore.KeyOf(sb, sc2)
	if ks1 != ks2 {
		t.Fatal("straightening configs that differ only in ignored fields must share a key")
	}
}

func TestDoSingleflight(t *testing.T) {
	s := fragstore.New()
	sb := memSB()
	cfg := accCfg(ildp.Modified, translate.SWPredRAS)
	key, content, err := fragstore.KeyOf(sb, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var translations atomic.Int64
	var wg sync.WaitGroup
	results := make([]*translate.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, _, err := s.Do(key, content, i, func() (*translate.Result, error) {
				translations.Add(1)
				return translate.Translate(sb, cfg.Translate)
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if n := translations.Load(); n != 1 {
		t.Fatalf("%d callers ran %d translations, want exactly 1", callers, n)
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != callers-1 || st.SharedHits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits all shared", st, callers-1)
	}

	// A later Do by a caller that did not translate is a shared hit. The
	// token must be one no goroutine above used: any of them may have
	// been the translating caller.
	if _, hit, shared, _ := s.Do(key, content, callers, nil); !hit || !shared {
		t.Fatalf("hit=%v shared=%v for a non-creator caller", hit, shared)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	s := fragstore.New()
	sb := aluSB()
	cfg := accCfg(ildp.Modified, translate.SWPredRAS)
	key, content, err := fragstore.KeyOf(sb, cfg)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected translate fault")
	if _, _, _, err := s.Do(key, content, t, func() (*translate.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want %v", err, boom)
	}
	if s.Len() != 0 {
		t.Fatal("failed translation was cached")
	}

	// The failure is not sticky: the next attempt translates again.
	res, hit, _, err := s.Do(key, content, t, translateFn(sb, cfg))
	if err != nil || hit || res == nil {
		t.Fatalf("retry after failure: res=%v hit=%v err=%v", res, hit, err)
	}
}

func TestDrop(t *testing.T) {
	s := fragstore.New()
	key := put(t, s, aluSB(), accCfg(ildp.Modified, translate.SWPredRAS))
	if s.Get(key) == nil {
		t.Fatal("entry not visible after Do")
	}
	if !s.Drop(key) {
		t.Fatal("Drop missed a present entry")
	}
	if s.Get(key) != nil || s.Len() != 0 {
		t.Fatal("entry still visible after Drop")
	}
	if s.Drop(key) {
		t.Fatal("Drop reported a vanished entry present")
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := populate(t)
	enc := s.Encode()

	s2, rep, err := fragstore.Decode(enc, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped() != 0 || rep.Loaded != s.Len() || rep.Entries != s.Len() {
		t.Fatalf("load report %v, want all %d entries loaded", rep, s.Len())
	}
	if rep.Skipped == 0 || rep.Verified == 0 {
		t.Fatalf("load report %v: want both verified and skipped entries", rep)
	}
	if !bytes.Equal(s2.Encode(), enc) {
		t.Fatal("Encode(Decode(b)) != b")
	}
	if got := s2.Stats().Loaded; got != uint64(rep.Loaded) {
		t.Fatalf("store Loaded counter %d, want %d", got, rep.Loaded)
	}

	// Loading twice into the same bytes is idempotent.
	s3, rep3, err := fragstore.Decode(enc, fragstore.LoadOptions{})
	if err != nil || rep3.Dropped() != 0 {
		t.Fatalf("second decode: %v %v", rep3, err)
	}
	if !bytes.Equal(s3.Encode(), enc) {
		t.Fatal("second decode does not round-trip")
	}
}

func TestDecodeSemCheck(t *testing.T) {
	s := populate(t)
	enc := s.Encode()
	_, rep, err := fragstore.Decode(enc, fragstore.LoadOptions{SemCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped() != 0 {
		t.Fatalf("semcheck dropped genuine translations: %v", rep)
	}
	if rep.Proved != rep.Loaded {
		t.Fatalf("proved %d of %d loaded entries", rep.Proved, rep.Loaded)
	}
}

// TestDecodeProvesStraightenedEntry: the structural rules skip
// straightened code, so under SemCheck the prover is the only check a
// straightened entry meets on load, and it must refuse one whose code
// no longer computes its stored superblock.
func TestDecodeProvesStraightenedEntry(t *testing.T) {
	sb, cfg := aluSB(), straightCfg()
	key, content, err := fragstore.KeyOf(sb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fragstore.New()
	if _, _, _, err := s.Do(key, content, t, func() (*translate.Result, error) {
		res, err := translate.Straighten(sb, cfg.Translate.Chain)
		if err != nil {
			return nil, err
		}
		for i := range res.Insts {
			if res.Insts[i].Op == alpha.OpXOR {
				res.Insts[i].Op = alpha.OpBIS
				return res, nil
			}
		}
		return nil, errors.New("no XOR to corrupt")
	}); err != nil {
		t.Fatal(err)
	}
	_, rep, err := fragstore.Decode(s.Encode(), fragstore.LoadOptions{SemCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedProve != 1 || rep.Loaded != 0 {
		t.Fatalf("corrupt straightened entry: %v, want 1 prove drop", rep)
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	enc := fragstore.New().Encode()
	s, rep, err := fragstore.Decode(enc, fragstore.LoadOptions{})
	if err != nil || rep.Entries != 0 {
		t.Fatalf("decode empty store: %v %v", rep, err)
	}
	if !bytes.Equal(s.Encode(), enc) {
		t.Fatal("empty store does not round-trip")
	}
}

// --- corrupt-stream tests ----------------------------------------------

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// span locates one entry body inside an encoded stream.
type span struct{ off, n int }

// entrySpans walks the stream structure and returns every entry body.
func entrySpans(t *testing.T, b []byte) []span {
	t.Helper()
	off := 8 + 4 + 4 + 4
	var out []span
	for s := 0; s < fragstore.NumShards; s++ {
		count := int(leU32(b[off:]))
		off += 4
		for i := 0; i < count; i++ {
			n := int(leU32(b[off:]))
			off += 4
			out = append(out, span{off, n})
			off += n + 8
		}
	}
	if off != len(b)-8 {
		t.Fatalf("stream walk ended at %d, trailer at %d", off, len(b)-8)
	}
	return out
}

func fixEntryCRC(b []byte, sp span) {
	putU64(b[sp.off+sp.n:], codec.Checksum(b[sp.off:sp.off+sp.n]))
}

func fixFileCRC(b []byte) {
	putU64(b[len(b)-8:], codec.Checksum(b[:len(b)-8]))
}

func TestDecodeCorruptFile(t *testing.T) {
	enc := populate(t).Encode()

	check := func(name string, b []byte, want error) {
		t.Helper()
		_, _, err := fragstore.Decode(b, fragstore.LoadOptions{})
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		var fe *codec.Error
		if !errors.As(err, &fe) {
			t.Fatalf("%s: err %T is not *codec.Error", name, err)
		}
	}

	check("empty", nil, codec.ErrTruncated)
	check("short", enc[:12], codec.ErrTruncated)

	bad := bytes.Clone(enc)
	bad[0] ^= 0xFF
	check("magic", bad, codec.ErrBadMagic)

	// The envelope checks the file CRC before the version: a skewed
	// version is reported only once the CRC vouches for it, and a
	// version byte flipped in transit is a checksum failure.
	bad = bytes.Clone(enc)
	bad[8] = 0xEE // version field
	check("version stale crc", bad, codec.ErrChecksum)
	fixFileCRC(bad)
	check("version", bad, codec.ErrVersion)

	bad = bytes.Clone(enc)
	bad[len(bad)/2] ^= 0x10
	check("flip", bad, codec.ErrChecksum)

	// Bytes wedged between the last entry and the trailer, trailer
	// recomputed so only structure can catch them.
	bad = append(bytes.Clone(enc[:len(enc)-8]), 0, 0, 0, 0)
	bad = append(bad, make([]byte, 8)...)
	fixFileCRC(bad)
	check("trailing", bad, codec.ErrTrailing)
}

func TestDecodeDropsCorruptEntry(t *testing.T) {
	s := populate(t)
	total := s.Len()
	enc := s.Encode()
	spans := entrySpans(t, enc)

	// Flip one byte deep in the first entry's body and repair only the
	// file trailer: the entry CRC catches it, the rest of the file loads.
	bad := bytes.Clone(enc)
	sp := spans[0]
	bad[sp.off+sp.n-1] ^= 0x40
	fixFileCRC(bad)
	st, rep, err := fragstore.Decode(bad, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedCRC != 1 || rep.Loaded != total-1 || st.Len() != total-1 {
		t.Fatalf("entry-CRC corruption: %v (store %d), want 1 CRC drop, %d loaded",
			rep, st.Len(), total-1)
	}

	// Flip a content byte (superblock record) and repair both CRCs: the
	// key no longer hashes the content record.
	bad = bytes.Clone(enc)
	sp = spans[1]
	bad[sp.off+40] ^= 0x01 // inside the content record, past the 32-byte key
	fixEntryCRC(bad, sp)
	fixFileCRC(bad)
	_, rep, err = fragstore.Decode(bad, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedKey != 1 || rep.Loaded != total-1 {
		t.Fatalf("key corruption: %v, want 1 key drop, %d loaded", rep, total-1)
	}

	// Truncate an entry body (shrink its length field and cut a byte):
	// the body parse fails and the entry is dropped as malformed, while
	// the file structure stays intact.
	sp = spans[0]
	const cut = 1
	bad = bytes.Clone(enc[:sp.off+sp.n-cut])   // body minus one byte
	bad = append(bad, enc[sp.off+sp.n:]...)    // entry CRC and the rest
	putU32(bad[sp.off-4:], uint32(sp.n-cut))   // shrink length field
	fixEntryCRC(bad, span{sp.off, sp.n - cut}) // entry CRC over short body
	fixFileCRC(bad)
	_, rep, err = fragstore.Decode(bad, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedMalformed != 1 || rep.Loaded != total-1 {
		t.Fatalf("truncated entry: %v, want 1 malformed drop, %d loaded", rep, total-1)
	}
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// TestLoadReportMidEntryTruncation pins down the LoadReport accounting
// contract under the two ways a cache file loses bytes mid-entry.
//
// A torn file — the prefix a crashed or faulted writer leaves behind —
// must be rejected whole with a typed error, never half-parsed: the
// whole-file CRC (or the truncated-trailer check) fires before any
// entry is admitted. A file that is intact at the transport layer but
// carries internally truncated entries must instead degrade per entry:
// each damaged entry is dropped and counted, every healthy entry loads,
// and Entries always reconciles with Loaded + Dropped().
func TestLoadReportMidEntryTruncation(t *testing.T) {
	s := populate(t)
	total := s.Len()
	enc := s.Encode()
	spans := entrySpans(t, enc)
	if len(spans) < 3 {
		t.Fatalf("want >= 3 entries to corrupt independently, have %d", len(spans))
	}

	// Every prefix that ends inside an entry is a torn file: typed
	// rejection, nil store, nothing admitted.
	for i, sp := range spans {
		cut := sp.off + sp.n/2
		st, _, err := fragstore.Decode(enc[:cut], fragstore.LoadOptions{})
		if st != nil || err == nil {
			t.Fatalf("entry %d: torn prefix of %d bytes parsed (err %v)", i, cut, err)
		}
		var fe *codec.Error
		if !errors.As(err, &fe) {
			t.Fatalf("entry %d: torn prefix error %T is not typed", i, err)
		}
		if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrChecksum) {
			t.Fatalf("entry %d: torn prefix error %v is neither truncation nor checksum", i, err)
		}
	}

	// Two independently damaged entries in one transport-intact file:
	// truncate one body (length field and entry CRC repaired, so only
	// structural parsing can object) and bit-flip another without
	// repairing its entry CRC. Both drops are counted under their own
	// cause, all other entries load, and the totals reconcile.
	sp := spans[2]
	const cut = 3
	bad := bytes.Clone(enc[:sp.off+sp.n-cut])
	bad = append(bad, enc[sp.off+sp.n:]...)
	putU32(bad[sp.off-4:], uint32(sp.n-cut))
	fixEntryCRC(bad, span{sp.off, sp.n - cut})
	bad[spans[0].off+spans[0].n/2] ^= 0x20 // before spans[2]: offset unshifted
	fixFileCRC(bad)

	st, rep, err := fragstore.Decode(bad, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedMalformed != 1 || rep.DroppedCRC != 1 {
		t.Fatalf("drops = %v, want 1 malformed + 1 CRC", rep)
	}
	if rep.Entries != total || rep.Loaded != total-2 || rep.Dropped() != 2 {
		t.Fatalf("accounting does not reconcile: %v (total %d)", rep, total)
	}
	if st.Len() != rep.Loaded {
		t.Fatalf("store holds %d entries, report says %d loaded", st.Len(), rep.Loaded)
	}

	// The survivors are genuinely intact: the degraded store re-encodes
	// into a file that loads cleanly with nothing further dropped.
	st2, rep2, err := fragstore.Decode(st.Encode(), fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Dropped() != 0 || st2.Len() != st.Len() {
		t.Fatalf("survivors reload dirty: %v (%d entries)", rep2, st2.Len())
	}
}

// TestDecodeDropsUnprovableEntry corrupts a fragment's instruction
// stream in a way every checksum accepts — the result record is not
// covered by the content key, and the entry CRC is recomputed — so only
// load-time re-verification can reject it.
func TestDecodeDropsUnprovableEntry(t *testing.T) {
	s := populate(t)
	total := s.Len()
	enc := s.Encode()

	bad := bytes.Clone(enc)
	mutated := false
	for _, sp := range entrySpans(t, bad) {
		body := bad[sp.off : sp.off+sp.n]
		if body[32] != 0 { // config record flags: skip straightened entries
			continue
		}
		// Walk to the result record's instruction array.
		const keyCfg = 32 + 5
		nSB := int(leU32(body[keyCfg+8+1+8:]))
		resOff := keyCfg + 21 + 21*nSB
		if body[resOff+9] != 0 { // straightened result flag
			continue
		}
		instOff := resOff + 8 + 1 + 1 + 32 + 8 + 64 + 4
		nInsts := int(leU32(body[instOff-4:]))
		for i := 0; i < nInsts; i++ {
			rec := body[instOff+i*54:]
			if rec[4]&1 == 1 { // WritesAcc: point it at an impossible accumulator
				rec[3] = 0x1E
				mutated = true
			}
		}
		if mutated {
			fixEntryCRC(bad, sp)
			break
		}
	}
	if !mutated {
		t.Fatal("no accumulator-writing instruction found to corrupt")
	}
	fixFileCRC(bad)

	st, rep, err := fragstore.Decode(bad, fragstore.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedVerify != 1 || rep.Loaded != total-1 {
		t.Fatalf("unprovable entry: %v, want 1 verify drop, %d loaded", rep, total-1)
	}
	if st.Len() != total-1 {
		t.Fatalf("store holds %d entries, want %d", st.Len(), total-1)
	}
}

func FuzzFragstoreDecode(f *testing.F) {
	s := fragstore.New()
	for _, sb := range []*translate.Superblock{aluSB(), memSB()} {
		put(f, s, sb, accCfg(ildp.Modified, translate.SWPredRAS))
		put(f, s, sb, straightCfg())
	}
	enc := s.Encode()
	f.Add(enc)
	f.Add(fragstore.New().Encode())
	short := bytes.Clone(enc[:len(enc)/2])
	f.Add(short)
	flip := bytes.Clone(enc)
	flip[len(flip)/3] ^= 0x80
	f.Add(flip)

	f.Fuzz(func(t *testing.T, b []byte) {
		st, rep, err := fragstore.Decode(b, fragstore.LoadOptions{})
		if err != nil {
			var fe *codec.Error
			if !errors.As(err, &fe) {
				t.Fatalf("decode error %T is not *codec.Error", err)
			}
			return
		}
		re := st.Encode()
		if rep.Dropped() == 0 && !bytes.Equal(re, b) {
			t.Fatal("Encode(Decode(b)) != b for a drop-free accepted stream")
		}
		// Whatever survived must itself round-trip cleanly.
		st2, rep2, err := fragstore.Decode(re, fragstore.LoadOptions{})
		if err != nil || rep2.Dropped() != 0 {
			t.Fatalf("re-encoded stream does not reload: %v %v", rep2, err)
		}
		if !bytes.Equal(st2.Encode(), re) {
			t.Fatal("re-encoded stream is not a fixed point")
		}
	})
}
