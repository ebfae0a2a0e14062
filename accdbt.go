// Package accdbt is a complete reimplementation of the co-designed virtual
// machine of Kim & Smith, "Dynamic Binary Translation for
// Accumulator-Oriented Architectures" (CGO 2003).
//
// The library contains every system the paper builds on:
//
//   - an Alpha (EV6 integer subset) instruction set with encoder, decoder,
//     disassembler, text assembler, and functional interpreter;
//   - the accumulator-oriented implementation ISA in both its Basic and
//     Modified forms, including the co-designed VM special instructions
//     (set-VPC, load-embedded-target-address, save-V-ISA-return-address,
//     push-dual-address-RAS);
//   - the dynamic binary translator: MRET superblock collection,
//     dependence/usage classification, strand formation, linear-scan
//     accumulator assignment, precise-trap tables, and the three fragment
//     chaining schemes of §4.3;
//   - the VM runtime with interpret/translate/execute mode switching, a
//     translation cache with fragment linking and patching, the
//     architecturally-visible dual-address return address stack, and the
//     shared dispatch routine;
//   - trace-driven timing models of the idealised out-of-order superscalar
//     and the ILDP distributed microarchitecture of Table 1;
//   - twelve synthetic SPEC CPU2000 INT stand-in workloads plus experiment
//     drivers that regenerate every table and figure of the evaluation; and
//   - an observability layer: a metrics registry (counters, gauges,
//     histograms, per-fragment lifecycle events) that taps the VM,
//     translation cache, and timing models without changing results, and
//     a versioned machine-readable experiment report (DESIGN.md §8).
//
// This package is a façade over the internal implementation packages; it
// exposes everything a downstream user needs through type aliases and
// constructor functions.
//
// # Quick start
//
//	prog := accdbt.MustAssemble(src)          // assemble Alpha source
//	v := accdbt.NewVM(accdbt.NewMemory(), accdbt.DefaultVMConfig())
//	_ = v.LoadProgram(prog)
//	_ = v.Run(0)                              // interpret + translate + execute
//	fmt.Println(v.Stats.Fragments, "fragments translated")
package accdbt

import (
	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/report"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// Source (V-ISA) machinery.
type (
	// Program is a loadable Alpha memory image with an entry point.
	Program = alphaprog.Program
	// AlphaInst is one decoded Alpha instruction.
	AlphaInst = alpha.Inst
	// CPU is the architected Alpha state plus functional interpreter.
	CPU = emu.CPU
	// Memory is the sparse 64-bit memory shared by interpreter and VM.
	Memory = mem.Memory
	// Trap is a precise architectural trap.
	Trap = emu.Trap
)

// Assemble assembles Alpha source text (see internal/alpha/alphaasm for
// the syntax).
func Assemble(src string) (*Program, error) { return alphaasm.Assemble(src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program { return alphaasm.MustAssemble(src) }

// DecodeAlpha decodes a raw 32-bit Alpha instruction word.
func DecodeAlpha(word uint32) AlphaInst { return alpha.Decode(alpha.Word(word)) }

// DisassembleAlpha renders a raw instruction word at pc.
func DisassembleAlpha(word uint32, pc uint64) string {
	return alpha.DisassembleWord(alpha.Word(word), pc)
}

// NewMemory returns an empty relaxed-mode memory.
func NewMemory() *Memory { return mem.New() }

// NewCPU returns a bare Alpha interpreter over m.
func NewCPU(m *Memory) *CPU { return emu.New(m) }

// Implementation (I-ISA) machinery.
type (
	// Form selects the Basic or Modified accumulator ISA.
	Form = ildp.Form
	// IInst is one I-ISA instruction.
	IInst = ildp.Inst
	// Fragment is a translated superblock in the translation cache.
	Fragment = tcache.Fragment
)

// I-ISA forms.
const (
	Basic    = ildp.Basic
	Modified = ildp.Modified
)

// Translation machinery.
type (
	// ChainMode selects the fragment-chaining implementation.
	ChainMode = translate.ChainMode
	// Superblock is a collected hot trace.
	Superblock = translate.Superblock
	// SBInst is one V-ISA instruction of a superblock.
	SBInst = translate.SBInst
	// TranslateConfig controls a single translation.
	TranslateConfig = translate.Config
	// Translation is the result of translating one superblock.
	Translation = translate.Result
)

// Chaining modes (§4.3).
const (
	NoPred    = translate.NoPred
	SWPred    = translate.SWPred
	SWPredRAS = translate.SWPredRAS
)

// Translate translates one superblock to the accumulator I-ISA.
func Translate(sb *Superblock, cfg TranslateConfig) (*Translation, error) {
	return translate.Translate(sb, cfg)
}

// Straighten performs the code-straightening-only translation.
func Straighten(sb *Superblock, chain ChainMode) (*Translation, error) {
	return translate.Straighten(sb, chain)
}

// Fragment verification.
type (
	// VerifyConfig parameterises fragment verification.
	VerifyConfig = iverify.Config
	// VerifyReport is the outcome of verifying one fragment.
	VerifyReport = iverify.Report
	// VerifyRule identifies one verifier rule (E1..E6, D1..D3, P1..P4,
	// C1..C5).
	VerifyRule = iverify.Rule
	// VerifyViolation is one structured diagnostic.
	VerifyViolation = iverify.Violation
)

// VerifyTranslation statically checks a translation result against the
// paper's accumulator invariants without executing it.
func VerifyTranslation(res *Translation, cfg VerifyConfig) *VerifyReport {
	return iverify.Verify(res, cfg)
}

// VerifyFragment statically checks an installed translation-cache
// fragment; set cfg.ResolveFrag to also validate its patched links.
func VerifyFragment(f *Fragment, cfg VerifyConfig) *VerifyReport {
	return iverify.Verify(&f.Result, cfg)
}

// VerifyRules lists every verifier rule.
func VerifyRules() []VerifyRule { return iverify.Rules() }

// VM runtime.
type (
	// VM is the co-designed virtual machine.
	VM = vm.VM
	// VMConfig controls the VM.
	VMConfig = vm.Config
	// VMStats aggregates dynamic execution statistics.
	VMStats = vm.Stats
)

// DefaultVMConfig returns the paper's baseline VM configuration.
func DefaultVMConfig() VMConfig { return vm.DefaultConfig() }

// NewVM creates a co-designed VM over m.
func NewVM(m *Memory, cfg VMConfig) *VM { return vm.New(m, cfg) }

// Trace and timing.
type (
	// TraceRec is one committed dynamic instruction.
	TraceRec = trace.Rec
	// TraceSink consumes a committed-instruction stream.
	TraceSink = trace.Sink
	// MachineConfig carries Table 1 machine parameters.
	MachineConfig = uarch.Config
	// TimingResult summarises a timing-model run.
	TimingResult = uarch.Result
	// OoO is the out-of-order superscalar timing model.
	OoO = uarch.OoO
	// ILDPCore is the distributed accumulator microarchitecture model.
	ILDPCore = uarch.ILDP
)

// DefaultOoOConfig returns the paper's superscalar baseline parameters.
func DefaultOoOConfig() MachineConfig { return uarch.DefaultOoO() }

// DefaultILDPConfig returns the paper's baseline ILDP parameters.
func DefaultILDPConfig() MachineConfig { return uarch.DefaultILDP() }

// NewOoO builds a superscalar timing model.
func NewOoO(cfg MachineConfig) *OoO { return uarch.NewOoO(cfg) }

// NewILDPCore builds an ILDP timing model.
func NewILDPCore(cfg MachineConfig) *ILDPCore { return uarch.NewILDP(cfg) }

// Workloads and experiments.
type (
	// Workload is one synthetic SPEC CPU2000 INT stand-in.
	Workload = workload.Spec
	// RunSpec describes one simulation run.
	RunSpec = experiments.RunSpec
	// Outcome is one simulation result.
	Outcome = experiments.Outcome
	// Machine selects one of the four simulated machines.
	Machine = experiments.Machine
)

// Simulated machines.
const (
	MachineOriginal     = experiments.Original
	MachineStraightened = experiments.Straightened
	MachineILDPBasic    = experiments.ILDPBasic
	MachineILDPModified = experiments.ILDPModified
)

// Workloads returns all twelve workloads at the given scale.
func Workloads(scale int) []*Workload { return workload.All(scale) }

// WorkloadByName generates one workload.
func WorkloadByName(name string, scale int) (*Workload, error) {
	return workload.ByName(name, scale)
}

// WorkloadNames lists the available workloads.
func WorkloadNames() []string { return workload.Names() }

// RunExperiment executes one simulation run.
func RunExperiment(spec RunSpec) (*Outcome, error) { return experiments.Run(spec) }

// Observability (DESIGN.md §8).
type (
	// MetricsRegistry collects counters, gauges, histograms, and
	// fragment lifecycle events; attach one via VMConfig.Metrics or
	// RunSpec.Metrics. All methods are safe on a nil registry, so
	// instrumentation costs one nil check when disabled.
	MetricsRegistry = metrics.Registry
	// MetricsEvent is one fragment lifecycle event (translate, verify,
	// install, chain, evict).
	MetricsEvent = metrics.Event
	// MetricsSnapshot is a registry's deterministic point-in-time state.
	MetricsSnapshot = metrics.Snapshot
	// ExperimentReport is the versioned machine-readable report that
	// `ildpbench -json` emits and `ildpreport` consumes.
	ExperimentReport = report.Report
	// ReportOptions parameterises RunReport.
	ReportOptions = report.RunOptions
)

// NewMetricsRegistry returns an empty, concurrency-safe registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RunReport executes experiments and assembles their machine-readable
// report (one record per paper table/figure cell plus run metadata).
func RunReport(opts ReportOptions) (*ExperimentReport, error) { return report.Run(opts) }

// DecodeReport parses and schema-validates a report produced by
// `ildpbench -json` or RunReport.
func DecodeReport(data []byte) (*ExperimentReport, error) { return report.Decode(data) }
