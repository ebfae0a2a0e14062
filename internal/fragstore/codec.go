package fragstore

// On-disk format of the fragment store (docs/FORMAT.md specifies it
// byte for byte). The stream is an internal/codec envelope — magic,
// version, fixed-width little-endian fields, a CRC-64 trailer, typed
// *codec.Error failures — with canonical ordering, so
// Encode(Decode(b)) == b for every stream Decode accepts without
// dropping an entry.
//
// The stream is guarded at two granularities. The envelope's file CRC
// rejects transport corruption outright (Decode fails with
// codec.ErrChecksum). Inside an intact file, each entry carries its own
// CRC, its content-record hash must reproduce its key, and its fragment
// must re-pass the static verifier — an entry failing any of those is
// dropped and counted in the LoadReport, never installed, while the
// rest of the file loads.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/translate"
)

// Version is the current fragment-store format version.
const Version = 1

// format is the store stream's envelope (internal/codec).
var format = codec.Format{
	Name:    "fragstore",
	Magic:   [8]byte{'A', 'C', 'C', 'D', 'B', 'T', 'F', 'S'},
	Version: Version,
}

// LoadOptions controls Decode's re-verification of loaded entries.
type LoadOptions struct {
	// SemCheck additionally re-proves every loaded fragment, straightened
	// ones included, symbolically equivalent to its stored source
	// superblock (internal/semcheck); entries with counterexamples are
	// dropped.
	SemCheck bool
}

// LoadReport accounts for every entry of a decoded stream: each one is
// either admitted to the store or dropped for a counted reason.
type LoadReport struct {
	// Entries is the number of entries present in the stream; Loaded
	// the number admitted after re-verification.
	Entries int
	Loaded  int

	// Verified counts entries proved by the static fragment verifier;
	// Skipped counts straightened entries, which carry no I-ISA
	// invariants for it to check. Proved counts entries, straightened
	// ones included, that semcheck proved equivalent to their stored
	// superblock (only when LoadOptions.SemCheck is set); with it set,
	// every loaded entry is proved, so Proved equals Loaded.
	Verified int
	Skipped  int
	Proved   int

	// Drop reasons: entry CRC mismatch, key does not hash its content
	// record, malformed entry body, static-verifier violation, semcheck
	// counterexample.
	DroppedCRC       int
	DroppedKey       int
	DroppedMalformed int
	DroppedVerify    int
	DroppedProve     int
}

// Dropped returns the total number of dropped entries.
func (r *LoadReport) Dropped() int {
	return r.DroppedCRC + r.DroppedKey + r.DroppedMalformed + r.DroppedVerify + r.DroppedProve
}

// String renders the report as a one-line summary.
func (r *LoadReport) String() string {
	return fmt.Sprintf("%d entries: %d loaded (%d verified, %d skipped, %d proved), %d dropped (crc %d, key %d, malformed %d, verify %d, prove %d)",
		r.Entries, r.Loaded, r.Verified, r.Skipped, r.Proved, r.Dropped(),
		r.DroppedCRC, r.DroppedKey, r.DroppedMalformed, r.DroppedVerify, r.DroppedProve)
}

// Encode serializes the store's completed entries into the versioned,
// CRC-guarded stream of docs/FORMAT.md. The output is canonical:
// entries sort by key within their shard, all integers are fixed-width
// little-endian, and encoding the same entries always yields identical
// bytes. Entries whose translation is still in flight are skipped.
func (s *Store) Encode() []byte {
	type flat struct {
		key     Key
		content []byte
		res     *translate.Result
	}
	var perShard [NumShards][]flat
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			select {
			case <-e.ready:
			default:
				continue
			}
			if e.err != nil {
				continue
			}
			perShard[i] = append(perShard[i], flat{k, e.content, e.res})
		}
		sh.mu.Unlock()
		sort.Slice(perShard[i], func(a, b int) bool {
			return bytes.Compare(perShard[i][a].key[:], perShard[i][b].key[:]) < 0
		})
		total += len(perShard[i])
	}

	w := format.NewWriter(8)
	w.U32(NumShards)
	w.U32(uint32(total))
	for i := range perShard {
		w.U32(uint32(len(perShard[i])))
		for _, f := range perShard[i] {
			body := codec.NewWriter(len(f.key) + len(f.content) + resultRecLen(f.res))
			body.Raw(f.key[:])
			body.Raw(f.content)
			writeResult(body, f.res)
			w.Blob(body.Bytes())
			w.U64(codec.Checksum(body.Bytes()))
		}
	}
	return w.Seal()
}

// Decode rebuilds a store from an Encode stream. Whole-file damage —
// bad magic, unknown version, truncation, file-checksum mismatch,
// non-canonical structure — fails with a typed *codec.Error and no
// store. Within an intact file, every entry is independently validated
// (entry CRC, key-to-content hash, structural well-formedness) and
// admitted by iverify.Admit — the static fragment verifier, plus
// semcheck when opts.SemCheck is set — before it becomes visible;
// entries failing any check are dropped and counted in the LoadReport,
// which is returned even on error.
func Decode(b []byte, opts LoadOptions) (*Store, *LoadReport, error) {
	rep := &LoadReport{}
	r, err := format.Open(b)
	if err != nil {
		return nil, rep, err
	}
	if n := r.U32(); n != NumShards {
		r.Fail(codec.ErrCanonical, "%d shards, want %d", n, NumShards)
	}
	total := r.U32()

	s := New()
	counted := uint32(0)
	for shardIdx := 0; shardIdx < NumShards && r.Err() == nil; shardIdx++ {
		var prev Key
		for n, count := 0, r.Count(4+8); n < count; n++ {
			counted++
			body := r.Blob()
			wantCRC := r.U64()
			if r.Err() != nil {
				break
			}
			rep.Entries++

			// Canonical placement checks use only the key prefix, so
			// they apply even to entries whose body is later dropped.
			if len(body) >= len(Key{}) {
				key := Key(body[:len(Key{})])
				if int(key[0])%NumShards != shardIdx {
					r.Fail(codec.ErrCanonical, "key %v in shard %d, belongs in %d", key, shardIdx, int(key[0])%NumShards)
				} else if n > 0 && bytes.Compare(key[:], prev[:]) <= 0 {
					r.Fail(codec.ErrCanonical, "key %v not strictly after %v", key, prev)
				}
				prev = key
			}
			if r.Err() != nil {
				break
			}
			if codec.Checksum(body) != wantCRC {
				rep.DroppedCRC++
				continue
			}
			loadEntry(s, body, opts, rep)
		}
	}
	if counted != total {
		r.Fail(codec.ErrCanonical, "entry total %d, shard counts sum to %d", total, counted)
	}
	if err := r.Done(); err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// loadEntry validates one CRC-clean entry body and admits it to the
// store, or counts the drop reason in rep.
func loadEntry(s *Store, body []byte, opts LoadOptions, rep *LoadReport) {
	key, content, cfg, sb, res, ok := parseEntry(body)
	if !ok {
		rep.DroppedMalformed++
		return
	}
	if sha256.Sum256(content) != [sha256.Size]byte(key) {
		rep.DroppedKey++
		return
	}
	// Re-check before the entry becomes visible: loaded artifacts are
	// never trusted on checksum alone.
	want := iverify.CheckRules
	if opts.SemCheck {
		want |= iverify.CheckProof
	}
	adm, err := iverify.Admit(res, sb, iverify.Config{
		Form:   cfg.Translate.Form,
		NumAcc: cfg.Translate.NumAcc,
		Chain:  cfg.Translate.Chain,
	}, want)
	if v := adm.Rules; v.Skipped {
		rep.Skipped++
	} else if v.OK() {
		rep.Verified++
	}
	if err != nil {
		var rej *iverify.RejectError
		if errors.As(err, &rej) && rej.By == iverify.CheckProof {
			rep.DroppedProve++
		} else {
			rep.DroppedVerify++
		}
		return
	}
	if adm.Proof != nil {
		rep.Proved++
	}
	s.insertLoaded(key, content, res)
	rep.Loaded++
}

// parseEntry parses an entry body: key ‖ content record (config record
// ‖ superblock record) ‖ result record. It reports ok=false for any
// structural violation — short fields, impossible enum values, length
// mismatch — without distinguishing causes; a malformed entry is
// dropped whatever the detail.
func parseEntry(body []byte) (key Key, content []byte, cfg Config, sb *translate.Superblock, res *translate.Result, ok bool) {
	r := codec.NewReader(format.Name, body)
	kb := r.Take(len(Key{}))
	contentStart := r.Off()
	cfg = parseConfigRec(r)
	sb = parseSuperblockRec(r)
	content = body[contentStart:r.Off()]
	res = parseResultRec(r)
	if r.Done() != nil {
		return key, nil, cfg, nil, nil, false
	}
	return Key(kb), content, cfg, sb, res, true
}

// parseConfigRec parses the canonical config record and enforces its
// normalisation: a straightening record must zero the fields
// straightening ignores, and every enum must be in range.
func parseConfigRec(r *codec.Reader) Config {
	flags, form, numAcc, chain, fuse := r.U8(), r.U8(), r.U8(), r.U8(), r.U8()
	if flags > 1 || form > uint8(ildp.Modified) || chain > uint8(translate.SWPredRAS) || fuse > 1 {
		r.Fail(codec.ErrCanonical, "config enum out of range")
	}
	cfg := Config{
		Straighten: flags == 1,
		Translate: translate.Config{
			Form:       ildp.Form(form),
			NumAcc:     int(numAcc),
			Chain:      translate.ChainMode(chain),
			FuseMemOps: fuse == 1,
		},
	}
	if cfg.Straighten {
		if form != 0 || numAcc != 0 || fuse != 0 {
			r.Fail(codec.ErrCanonical, "straightening config not normalised")
		}
	} else if numAcc == 0 || int(numAcc) > ildp.MaxAccumulators {
		r.Fail(codec.ErrCanonical, "accumulator count out of range")
	}
	return cfg
}

// parseSuperblockRec parses the canonical superblock record
// (writeSuperblock's layout), rebuilding each instruction from its
// stored Alpha word.
func parseSuperblockRec(r *codec.Reader) *translate.Superblock {
	sb := &translate.Superblock{StartPC: r.U64()}
	end := r.U8()
	if end > uint8(translate.EndTrap) {
		r.Fail(codec.ErrCanonical, "superblock end kind")
	}
	sb.End = translate.EndKind(end)
	sb.NextPC = r.U64()
	n := r.Count(sbInstRecLen)
	if n == 0 {
		r.Fail(codec.ErrCanonical, "empty superblock")
	}
	sb.Insts = make([]translate.SBInst, n)
	for i := range sb.Insts {
		si := &sb.Insts[i]
		si.PC = r.U64()
		si.Inst = alpha.Decode(alpha.Word(r.U32()))
		flags := r.U8()
		if flags > 1 {
			r.Fail(codec.ErrCanonical, "superblock taken flag")
		}
		si.Taken = flags == 1
		si.PredTarget = r.U64()
	}
	return sb
}

// resultRecLen sizes the result record for preallocation.
func resultRecLen(res *translate.Result) int {
	n := 8 + 1 + 1 + 8*4 + 8 + 8*8 + 4 + len(res.Insts)*instRecLen +
		4 + 8*len(res.PEI) + 4 + 4 + 4*len(res.Strands) + 4 + 1 + len(res.EndLive)
	for _, rec := range res.PEIRecover {
		n += 1 + 2*len(rec)
	}
	for _, regs := range res.ExitLive {
		n += 1 + len(regs)
	}
	return n
}

// instRecLen is the encoded size of one I-ISA instruction record.
const instRecLen = 1 + 2 + 1 + 1 + 10 + 10 + 1 + 1 + 4 + 8 + 8 + 4 + 1 + 1 + 1

// writeResult appends the result record: every field of
// translate.Result in fixed order, fixed width, with slice lengths
// prefixed, so decode-then-encode reproduces the bytes exactly.
func writeResult(w *codec.Writer, res *translate.Result) {
	w.U64(res.VStart)
	w.U8(byte(res.Form))
	w.U8(boolByte(res.Straightened))
	for _, v := range [...]int{res.SrcCount, res.NOPCount, res.BranchElims,
		res.CopyCount, res.SpillCount, res.ChainCount, res.CodeBytes, res.SrcBytes} {
		w.U32(uint32(v))
	}
	w.U64(uint64(res.Cost))
	for _, u := range res.Usage {
		w.U64(uint64(u))
	}
	w.U32(uint32(len(res.Insts)))
	for i := range res.Insts {
		writeInst(w, &res.Insts[i])
	}
	w.U32(uint32(len(res.PEI)))
	for _, pc := range res.PEI {
		w.U64(pc)
	}
	w.U32(uint32(len(res.PEIRecover)))
	for _, rec := range res.PEIRecover {
		w.U8(byte(len(rec)))
		for _, ra := range rec {
			w.U8(byte(ra.Reg))
			w.U8(byte(ra.Acc))
		}
	}
	w.U32(uint32(len(res.Strands)))
	for _, s := range res.Strands {
		w.U32(uint32(int32(s)))
	}
	w.U32(uint32(len(res.ExitLive)))
	for _, regs := range res.ExitLive {
		writeRegList(w, regs)
	}
	writeRegList(w, res.EndLive)
}

// writeInst appends one instruction record (instRecLen bytes).
func writeInst(w *codec.Writer, in *ildp.Inst) {
	w.Raw([]byte{byte(in.Kind), byte(in.Op), byte(uint16(in.Op) >> 8), byte(in.Acc), boolByte(in.WritesAcc)})
	writeSrc(w, in.SrcA)
	writeSrc(w, in.SrcB)
	w.Raw([]byte{byte(in.Dest), byte(in.ArchDest)})
	w.U32(uint32(in.Disp))
	w.U64(in.VPC)
	w.U64(in.VAddr)
	w.U32(uint32(in.Frag))
	w.Raw([]byte{byte(in.Class), in.VCredit, byte(in.Usage)})
}

// writeSrc appends one source-operand record (10 bytes).
func writeSrc(w *codec.Writer, s ildp.Src) {
	w.Raw([]byte{byte(s.Kind), byte(s.Reg)})
	w.U64(uint64(s.Imm))
}

// writeRegList appends a u8-counted register list.
func writeRegList(w *codec.Writer, regs []alpha.Reg) {
	w.U8(byte(len(regs)))
	for _, r := range regs {
		w.U8(byte(r))
	}
}

// boolByte encodes a flag as 0 or 1.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// parseResultRec parses the result record (writeResult's layout).
func parseResultRec(r *codec.Reader) *translate.Result {
	res := &translate.Result{VStart: r.U64()}
	form := r.U8()
	if form > uint8(ildp.Modified) {
		r.Fail(codec.ErrCanonical, "result form")
	}
	res.Form = ildp.Form(form)
	res.Straightened = parseFlag(r)
	for _, dst := range [...]*int{&res.SrcCount, &res.NOPCount, &res.BranchElims,
		&res.CopyCount, &res.SpillCount, &res.ChainCount, &res.CodeBytes, &res.SrcBytes} {
		*dst = int(r.U32())
	}
	res.Cost = int64(r.U64())
	for i := range res.Usage {
		res.Usage[i] = int64(r.U64())
	}

	nInsts := r.Count(instRecLen)
	if nInsts == 0 {
		r.Fail(codec.ErrCanonical, "empty fragment")
	}
	res.Insts = make([]ildp.Inst, nInsts)
	for i := range res.Insts {
		parseInst(r, &res.Insts[i])
	}

	if n := r.Count(8); n > 0 {
		res.PEI = make([]uint64, n)
		for i := range res.PEI {
			res.PEI[i] = r.U64()
		}
	}
	if n := r.Count(1); n > 0 {
		res.PEIRecover = make([][]translate.RegAcc, n)
		for i := range res.PEIRecover {
			m := r.U8()
			if m == 0 {
				continue
			}
			rec := make([]translate.RegAcc, m)
			for j := range rec {
				reg, acc := r.U8(), r.U8()
				if reg >= alpha.NumRegs || int(acc) >= ildp.MaxAccumulators {
					r.Fail(codec.ErrCanonical, "recovery pair out of range")
				}
				rec[j] = translate.RegAcc{Reg: alpha.Reg(reg), Acc: ildp.AccID(acc)}
			}
			res.PEIRecover[i] = rec
		}
	}
	if n := r.Count(4); n > 0 {
		res.Strands = make([]int, n)
		for i := range res.Strands {
			res.Strands[i] = int(int32(r.U32()))
		}
	}
	if n := r.Count(1); n > 0 {
		res.ExitLive = make([][]alpha.Reg, n)
		for i := range res.ExitLive {
			res.ExitLive[i] = parseRegList(r)
		}
	}
	res.EndLive = parseRegList(r)

	// The per-VM cache may only patch NoFrag exits and dispatch stubs;
	// a stored fragment referencing a concrete fragment ID would leak
	// one session's private cache layout into the shared artifact.
	for i := range res.Insts {
		if f := res.Insts[i].Frag; f != ildp.NoFrag && f != ildp.FragDispatch {
			r.Fail(codec.ErrCanonical, "concrete fragment link")
		}
	}
	return res
}

// parseInst parses one instruction record.
func parseInst(r *codec.Reader, in *ildp.Inst) {
	in.Kind = ildp.Kind(r.U8())
	lo, hi := r.U8(), r.U8()
	in.Op = alpha.Op(uint16(lo) | uint16(hi)<<8)
	in.Acc = ildp.AccID(r.U8())
	in.WritesAcc = parseFlag(r)
	parseSrc(r, &in.SrcA)
	parseSrc(r, &in.SrcB)
	in.Dest = alpha.Reg(r.U8())
	in.ArchDest = alpha.Reg(r.U8())
	in.Disp = int32(r.U32())
	in.VPC = r.U64()
	in.VAddr = r.U64()
	in.Frag = int32(r.U32())
	in.Class = ildp.Class(r.U8())
	in.VCredit = r.U8()
	in.Usage = ildp.UsageClass(r.U8())
	if in.Class > ildp.ClassSpecial || in.Usage > ildp.UsageNoUserGlobal {
		r.Fail(codec.ErrCanonical, "instruction class out of range")
	}
}

// parseSrc parses one source-operand record.
func parseSrc(r *codec.Reader, s *ildp.Src) {
	s.Kind = ildp.SrcKind(r.U8())
	s.Reg = alpha.Reg(r.U8())
	s.Imm = int64(r.U64())
}

// parseFlag parses a 0-or-1 flag byte.
func parseFlag(r *codec.Reader) bool {
	v := r.U8()
	if v > 1 {
		r.Fail(codec.ErrCanonical, "flag byte")
	}
	return v == 1
}

// parseRegList parses a u8-counted register list; zero count yields nil.
func parseRegList(r *codec.Reader) []alpha.Reg {
	m := r.U8()
	if m == 0 {
		return nil
	}
	regs := make([]alpha.Reg, m)
	for i := range regs {
		reg := r.U8()
		if reg >= alpha.NumRegs {
			r.Fail(codec.ErrCanonical, "register out of range")
		}
		regs[i] = alpha.Reg(reg)
	}
	return regs
}
