package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"satcheck"
	"satcheck/internal/certify"
	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
	"satcheck/internal/trace"
)

// oocBudget is the out-of-core window budget: small enough that the four
// largest rows of the draw need at least two windows.
const oocBudget = 256 << 10

// clausalWL rotates LRAT kernel checks, backward DRAT checks, out-of-core
// LRAT checks and dual certification: the drat, kernelcheck, ooc and
// certify layers, which no other workload runs.
var clausalWL = workload{
	name:  "clausal",
	setup: setupClausal,
}

// clausalDraw spans 0.3-73 KB of DRAT proof over the Table 2 families. The
// seed draws the two smallest rows; the rest are fixed instances.
func clausalDraw(rng *rand.Rand) []gen.Instance {
	return []gen.Instance{
		gen.Scheduling(16, 4, 12, seedOf(rng)),
		gen.FPGARouting(12, 4, 8, seedOf(rng)),
		gen.BMCCounter(4, 10),
		gen.Pigeonhole(5),
		gen.TseitinCharge(18, 3),
		gen.CECMultiplier(3),
		gen.CECAdder(8),
		gen.Scheduling(24, 6, 30, fixedSeed),
		gen.FPGARouting(24, 6, 16, fixedSeed),
		gen.PipelineALU(8),
	}
}

// clausalInput is one instance with every proof encoding the workload
// checks. Certification takes raw bytes; the other checks read files.
type clausalInput struct {
	name      string
	f         *cnf.Formula
	cnf       []byte
	trace     []byte // ASCII native trace
	dratBytes []byte
	dratPath  string
	lratPath  string
	lrat      *drat.LRATProof
	tr        *trace.MemoryTrace
}

func setupClausal(seed int64, dir string) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	var inputs []*clausalInput
	for i, ins := range clausalDraw(rng) {
		s, err := solve(ins, true)
		if err != nil {
			return nil, err
		}
		in := &clausalInput{name: s.name, f: s.f, dratBytes: s.drat, tr: s.tr}
		if in.cnf, err = dimacs(s.f); err != nil {
			return nil, err
		}
		if in.trace, err = encodeTrace(s.tr, false); err != nil {
			return nil, err
		}
		var lrat bytes.Buffer
		if _, err := kernelcheck.TraceToLRAT(s.f, s.tr, &lrat, checker.Options{}); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if in.lrat, err = drat.ParseLRAT(bytes.NewReader(lrat.Bytes())); err != nil {
			return nil, err
		}
		in.dratPath = filepath.Join(dir, fmt.Sprintf("%02d-%s.drat", i, s.name))
		in.lratPath = filepath.Join(dir, fmt.Sprintf("%02d-%s.lrat", i, s.name))
		if err := writeFile(in.dratPath, in.dratBytes); err != nil {
			return nil, err
		}
		if err := writeFile(in.lratPath, lrat.Bytes()); err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}

	signer, err := certify.NewEd25519Signer()
	if err != nil {
		return nil, err
	}
	cert, err := certify.New(certify.Config{Signer: signer})
	if err != nil {
		return nil, err
	}
	var ops []*op
	for _, in := range inputs {
		ops = append(ops,
			lratOp(in, in.name, in.lratPath, true),
			dratOp(in, in.name, in.dratPath, true),
			oocOp(in, in.name, in.lratPath, true),
			certifyOp(cert, signer, in, in.name, in.trace, true))
	}

	// Mutants, each rejected by construction: two LRAT proofs with a
	// dangling hint (one for the kernel, one out of core), a DRAT proof that
	// claims the empty clause first, and a certification request whose trace
	// carries a must-reject fault. The mutated rows are fixed mid-size
	// instances (cec-mult-3, cec-adder-8, tseitin-18) and the seed picks the
	// fault, so the mutants' cost does not swing with the seed.
	for k, kind := range []string{"lrat", "ooc"} {
		in := inputs[5+k]
		bad, err := danglingLRAT(in.lrat, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		b, err := writeLRAT(bad.Lines)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("mutant-%d-%s.lrat", k, in.name))
		if err := writeFile(path, b); err != nil {
			return nil, err
		}
		name := in.name + "/lrat-drop-line"
		if kind == "lrat" {
			ops = append(ops, lratOp(in, name, path, false))
		} else {
			ops = append(ops, oocOp(in, name, path, false))
		}
	}
	in := inputs[4]
	early, err := prematureEmpty(in.f, in.dratBytes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	path := filepath.Join(dir, "mutant-"+in.name+".drat")
	if err := writeFile(path, early); err != nil {
		return nil, err
	}
	ops = append(ops, dratOp(in, in.name+"/premature-empty", path, false))
	in = inputs[5]
	mt, mut, err := mustRejectTrace(in.tr, rng)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	badTrace, err := encodeTrace(mt, false)
	if err != nil {
		return nil, err
	}
	ops = append(ops, certifyOp(cert, signer, in, in.name+"/"+mut, badTrace, false))

	d := newInproc(ops, seed)
	d.layers = clausalLayers
	return d, nil
}

func lratOp(in *clausalInput, name, path string, want bool) *op {
	f := in.f
	return &op{
		name: name + "/lrat", kind: "lrat", want: want,
		run: func(ctx context.Context) (verdict, error) {
			rep, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{
				Formula: f, Format: satcheck.FormatLRAT, Proof: satcheck.ProofFileSource(path),
			})
			if err != nil {
				return verdict{}, err
			}
			return reportVerdict(rep), nil
		},
		replay: func(t *tracer, parent int, req int64, st *replayStats) (verdict, error) {
			var proof *drat.LRATProof
			var err error
			t.stage("drat.lrat_parse", parent, req, nil, func() { proof, err = drat.LoadLRAT(drat.FileSource(path)) })
			if err != nil {
				return verdict{}, nil
			}
			t.stage("kernelcheck.verify", parent, req, nil, func() { _, err = kernelcheck.CheckLRATProof(f, proof, checker.Options{}) })
			return clausalVerdict(nil, err)
		},
	}
}

func dratOp(in *clausalInput, name, path string, want bool) *op {
	f := in.f
	return &op{
		name: name + "/drat-df", kind: "drat", want: want,
		run: func(ctx context.Context) (verdict, error) {
			rep, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{
				Formula: f, Format: satcheck.FormatDRAT, Method: satcheck.DepthFirst, Proof: satcheck.ProofFileSource(path),
			})
			if err != nil {
				return verdict{}, err
			}
			return reportVerdict(rep), nil
		},
		replay: func(t *tracer, parent int, req int64, st *replayStats) (verdict, error) {
			var proof *drat.Proof
			var err error
			t.stage("drat.parse", parent, req, nil, func() { proof, err = drat.Load(drat.FileSource(path)) })
			if err != nil {
				return verdict{}, nil
			}
			var res *checker.Result
			t.stage("drat.backward", parent, req, nil, func() {
				res, err = drat.CheckProof(f, proof, drat.Backward, checker.Options{}, nil)
			})
			return clausalVerdict(res, err)
		},
	}
}

func oocOp(in *clausalInput, name, path string, want bool) *op {
	f := in.f
	opts := checker.Options{MemBudgetBytes: oocBudget}
	return &op{
		name: name + "/ooc", kind: "ooc", want: want,
		run: func(ctx context.Context) (verdict, error) {
			rep, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{
				Formula: f, Format: satcheck.FormatLRAT, Method: satcheck.OOC,
				Proof: satcheck.ProofFileSource(path), Options: opts,
			})
			if err != nil {
				return verdict{}, err
			}
			return reportVerdict(rep), nil
		},
		replay: func(t *tracer, parent int, req int64, st *replayStats) (verdict, error) {
			var res *checker.Result
			var err error
			t.stage("ooc.check", parent, req, nil, func() { res, err = ooc.CheckLRAT(f, drat.FileSource(path), opts) })
			if err == nil {
				st.sums["ooc_windows"] += float64(res.OOCWindows)
				st.sums["ooc_spilled"] += float64(res.SpilledBytes)
			}
			return clausalVerdict(res, err)
		},
	}
}

func certifyOp(cert *certify.Certifier, signer certify.Signer, in *clausalInput, name string, traceBytes []byte, want bool) *op {
	req := certify.Request{FormulaBytes: in.cnf, TraceBytes: traceBytes, DRATBytes: in.dratBytes}
	hashes := certify.Hashes{
		Instance: certify.HashBytes(in.cnf),
		Trace:    certify.HashBytes(traceBytes),
		DRAT:     certify.HashBytes(in.dratBytes),
	}
	return &op{
		name: name + "/certify", kind: "certify", want: want,
		run: func(ctx context.Context) (verdict, error) {
			return bundleVerdict(cert.Certify(ctx, req)), nil
		},
		replay: func(t *tracer, parent int, reqID int64, st *replayStats) (verdict, error) {
			f, err := cnf.ParseDimacs(bytes.NewReader(in.cnf))
			if err != nil {
				return verdict{}, err
			}
			ctx := context.Background()
			verdicts := make([]certify.CheckerVerdict, 2)
			t.stage("certify.kernelpipe", parent, reqID, nil, func() {
				verdicts[0] = certify.RunKernelPipe(ctx, f, traceBytes, nil, 0, nil)
			})
			t.stage("certify.rupipe", parent, reqID, nil, func() {
				verdicts[1] = certify.RunRUPPipe(ctx, f, in.dratBytes, 0, nil)
			})
			return bundleVerdict(certify.Assemble(hashes, verdicts, signer, time.Now())), nil
		},
	}
}

// bundleVerdict reads a certification bundle as a verdict: accepted when
// certified, with both pipelines' core hashes as the core.
func bundleVerdict(b *certify.Bundle) verdict {
	v := verdict{accepted: b.Certified()}
	if v.accepted {
		var cores []string
		for _, c := range b.Checkers {
			cores = append(cores, c.Pipeline+":"+c.CoreSHA256)
		}
		v.core = strings.Join(cores, " ")
	}
	return v
}

// clausalVerdict classifies a checker call: a CheckError is a rejection,
// any other error an infrastructure failure.
func clausalVerdict(res *checker.Result, err error) (verdict, error) {
	if err != nil {
		if rejection(err) {
			return verdict{}, nil
		}
		return verdict{}, err
	}
	v := verdict{accepted: true}
	if res != nil {
		v.core = coreKey(res.CoreClauses)
	}
	return v, nil
}

var clausalStages = map[string][]string{
	"lrat":    {"drat.lrat_parse", "kernelcheck.verify"},
	"drat":    {"drat.parse", "drat.backward"},
	"ooc":     {"ooc.check"},
	"certify": {"certify.kernelpipe", "certify.rupipe"},
}

// clausalLayers reports each stage per check of the kind that runs it. The
// residual covers the lrat, drat and ooc checks; certification runs its two
// pipelines concurrently, which certify.overlap reports instead.
func clausalLayers(t *tracer, st *replayStats, _ float64) map[string]metric {
	self := t.selfTimes()
	m := map[string]metric{}
	var residual, residualOps float64
	for kind, stages := range clausalStages {
		k := float64(st.kinds[kind])
		stageMS := 0.0
		for _, s := range stages {
			m[s+"_ms"] = metric{self[s] / k, "ms"}
			stageMS += self[s]
		}
		if kind != "certify" {
			residual += st.sums["check_ms:"+kind] - stageMS
			residualOps += k
		}
	}
	k := float64(st.kinds["ooc"])
	m["ooc.windows"] = metric{st.sums["ooc_windows"] / k, "count"}
	m["ooc.spilled_kb"] = metric{st.sums["ooc_spilled"] / k / 1024, "KiB"}
	certifyMS := st.sums["check_ms:certify"] / float64(st.kinds["certify"])
	m["certify.certify_ms"] = metric{certifyMS, "ms"}
	m["certify.overlap"] = metric{(m["certify.kernelpipe_ms"].Value + m["certify.rupipe_ms"].Value) / certifyMS, "ratio"}
	m["clausal.residual_ms"] = metric{residual / residualOps, "ms"}
	return m
}
