package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/faults"
	"satcheck/internal/gen"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// solved is one generated instance with the solver's records of its
// refutation. Every instance the benchmark draws is unsatisfiable by
// construction; setup fails if the generator or the solver says otherwise.
type solved struct {
	name string
	f    *cnf.Formula
	tr   *trace.MemoryTrace
	drat []byte // DRUP proof from the same solve, when asked for
}

// solve runs the CDCL solver on ins, recording the resolution trace and,
// when withDRAT is set, a DRUP proof of the same run.
func solve(ins gen.Instance, withDRAT bool) (*solved, error) {
	if !ins.ExpectUnsat {
		return nil, fmt.Errorf("%s: generator does not construct it unsatisfiable", ins.Name)
	}
	s, err := solver.New(ins.F, solver.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ins.Name, err)
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	var proof bytes.Buffer
	var dw *drat.Writer
	if withDRAT {
		dw = drat.NewWriter(&proof)
		s.SetProofSink(dw)
	}
	st, err := s.Solve()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if st != solver.StatusUnsat {
		return nil, fmt.Errorf("%s: solver answered %v for an unsatisfiable instance", ins.Name, st)
	}
	out := &solved{name: ins.Name, f: ins.F, tr: mt}
	if dw != nil {
		if err := dw.Close(); err != nil {
			return nil, err
		}
		out.drat = proof.Bytes()
	}
	return out, nil
}

// encodeTrace serializes a trace in the ASCII or binary native format.
func encodeTrace(mt *trace.MemoryTrace, binary bool) ([]byte, error) {
	var buf bytes.Buffer
	var sink trace.Sink
	if binary {
		sink = trace.NewBinaryWriter(&buf)
	} else {
		sink = trace.NewASCIIWriter(&buf)
	}
	if err := mt.Replay(sink); err != nil {
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func dimacs(f *cnf.Formula) ([]byte, error) {
	var buf bytes.Buffer
	if err := cnf.WriteDimacs(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readTrace reads a native trace file (either encoding) into memory.
func readTrace(path string) (*trace.MemoryTrace, error) {
	r, err := trace.FileSource(path).Open()
	if err != nil {
		return nil, err
	}
	mt := &trace.MemoryTrace{}
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return mt, nil
		}
		if err != nil {
			return nil, err
		}
		mt.Events = append(mt.Events, ev)
	}
}

// coreKey renders a core canonically (sorted, hashed).
func coreKey(core []int) string {
	if len(core) == 0 {
		return ""
	}
	s := append([]int(nil), core...)
	sort.Ints(s)
	h := sha256.New()
	for _, c := range s {
		h.Write(strconv.AppendInt(nil, int64(c), 10))
		h.Write([]byte{' '})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// proofFromClauses turns parsed TraceCheck clauses into the clausal proof
// the forward annotator takes: the derived clauses in order.
func proofFromClauses(clauses []tracecheck.Clause, nOrig int) *drat.Proof {
	p := &drat.Proof{}
	for _, c := range clauses {
		if c.ID <= nOrig {
			continue
		}
		p.Steps = append(p.Steps, drat.Step{Lits: c.Lits})
		p.Ints += int64(len(c.Lits)) + 1
	}
	return p
}

// hintClosure is the unsatisfiable core an LRAT derivation certifies: the
// original clauses reachable from the empty clause's hints, as 0-based
// clause indices.
func hintClosure(lines []drat.LRATLine, nOrig int) []int {
	byID := make(map[int]*drat.LRATLine, len(lines))
	var final *drat.LRATLine
	for i := range lines {
		ln := &lines[i]
		if ln.Del {
			continue
		}
		byID[ln.ID] = ln
		if len(ln.Lits) == 0 && final == nil {
			final = ln
		}
	}
	if final == nil {
		return nil
	}
	seen := map[int]bool{}
	stack := append([]int(nil), final.Hints...)
	var core []int
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 {
			id = -id
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		if id <= nOrig {
			core = append(core, id-1)
			continue
		}
		if ln := byID[id]; ln != nil {
			stack = append(stack, ln.Hints...)
		}
	}
	return core
}

// rejection reports whether err is a proof rejection (a structured
// diagnostic) rather than an infrastructure failure.
func rejection(err error) bool {
	var ce *checker.CheckError
	return errors.As(err, &ce)
}

// mustRejectTrace corrupts mt with a randomly chosen mutation from the
// fault catalogue that every checker is guaranteed to reject.
func mustRejectTrace(mt *trace.MemoryTrace, rng *rand.Rand) (*trace.MemoryTrace, string, error) {
	var structural []faults.Mutation
	for _, m := range faults.All() {
		if m.MustReject {
			structural = append(structural, m)
		}
	}
	for try := 0; try < 32; try++ {
		m := structural[rng.Intn(len(structural))]
		if out, ok := faults.Inject(m, mt, rng.Int63()); ok {
			return out, m.Name, nil
		}
	}
	return nil, "", errors.New("no must-reject mutation applies")
}

// danglingLRAT drops one addition line from an LRAT proof with the fault
// catalogue's lrat-drop-line, retrying until the result is rejected by
// construction: a later line still hints at or deletes the dropped ID, or
// the dropped line was the empty clause. A hint at a clause that was never
// added is never valid LRAT.
func danglingLRAT(p *drat.LRATProof, rng *rand.Rand) (*drat.LRATProof, error) {
	m, err := faults.LRATByName("lrat-drop-line")
	if err != nil {
		return nil, err
	}
	ids := map[int]bool{}
	for _, ln := range p.Lines {
		if !ln.Del {
			ids[ln.ID] = true
		}
	}
	for try := 0; try < 64; try++ {
		out, ok := faults.InjectLRAT(m, p, rng.Int63())
		if !ok {
			continue
		}
		left := map[int]bool{}
		hasEmpty := false
		for _, ln := range out.Lines {
			if !ln.Del {
				left[ln.ID] = true
				hasEmpty = hasEmpty || len(ln.Lits) == 0
			}
		}
		dropped := -1
		for id := range ids {
			if !left[id] {
				dropped = id
			}
		}
		if !hasEmpty {
			return out, nil
		}
		// Only lines up to the empty clause count: a checker may stop there.
		for _, ln := range out.Lines {
			for _, h := range append(append([]int(nil), ln.Hints...), ln.DelIDs...) {
				if h == dropped || -h == dropped {
					return out, nil
				}
			}
			if !ln.Del && len(ln.Lits) == 0 {
				break
			}
		}
	}
	return nil, errors.New("lrat-drop-line left no dangling reference")
}

// prematureEmpty models a clausal proof logger that writes the empty
// clause before its derivation: the proof starts with the empty clause.
// When unit propagation alone does not refute the formula (checked here,
// independently of the checkers), that first lemma is neither RUP nor RAT,
// so every DRAT checker must reject the proof.
func prematureEmpty(f *cnf.Formula, proof []byte) ([]byte, error) {
	if unitRefutes(f) {
		return nil, errors.New("formula is refuted by unit propagation; an early empty clause would be valid")
	}
	return append([]byte("0\n"), proof...), nil
}

// unitRefutes runs unit propagation to a fixpoint on f and reports whether
// it reaches a conflict. Deliberately naive: it shares no code with the
// checkers whose verdicts it predicts.
func unitRefutes(f *cnf.Formula) bool {
	val := map[cnf.Var]bool{}
	for changed := true; changed; {
		changed = false
		for _, c := range f.Clauses {
			unassigned, last := 0, cnf.Lit(0)
			sat := false
			for _, l := range c {
				v, ok := val[l.Var()]
				switch {
				case !ok:
					unassigned++
					last = l
				case v != l.IsNeg():
					sat = true
				}
			}
			if sat {
				continue
			}
			if unassigned == 0 {
				return true
			}
			if unassigned == 1 {
				val[last.Var()] = !last.IsNeg()
				changed = true
			}
		}
	}
	return false
}

// writeLRAT serializes LRAT lines.
func writeLRAT(lines []drat.LRATLine) ([]byte, error) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := drat.WriteLines(w, lines); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
