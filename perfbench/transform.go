package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"prophet/internal/checker"
	"prophet/internal/cppgen"
	"prophet/internal/gogen"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/modelgen"
	"prophet/internal/profile"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// transformNodes is the size of every transform model.
const transformNodes = 10000

// digestOps is how many of a run's first ops the reported run digest
// covers: a fixed count, so runs with the same seed print the same digest
// however many ops they complete.
const digestOps = 16

// Pinned digests of the C++ and Go generated for the canary model
// (modelgen seed 42, 10000 nodes, default mix). Code generation must stay
// byte-identical across runs and commits; a change that alters the output
// on purpose updates these.
const (
	canaryCppDigest = "34116aff61a6f4ffaa038936b718ef81e09209ff81dfe686d5fe9c240d43ec1e"
	canaryGoDigest  = "522c03b11c98339897d14f31f25ed2462dee497d3e126de4698f650d33959a7e"
)

// generated is the output of one pass through the pipeline.
type generated struct {
	nodes      int
	cpp, gosrc string
}

// transform takes XMI text through the UML→C++ pipeline the way teuta
// and the estimator do: decode, check, compile, lower, then C++ and Go
// code generation. Each call into a layer is a span under parent; rec
// may be nil.
func transform(text string, rec *recorder, parent int) (generated, error) {
	var (
		out generated
		m   *uml.Model
		err error
	)
	rec.layer(parent, "xmi.decode", func() { m, err = xmi.DecodeString(text) })
	if err != nil {
		return out, fmt.Errorf("decode: %w", err)
	}
	reg := profile.NewRegistry()
	var rep *checker.Report
	rec.layer(parent, "checker.check", func() { rep = checker.NewWith(reg, checker.Config{}).Check(m) })
	if rep.HasErrors() {
		return out, fmt.Errorf("model fails checking")
	}
	var pr *interp.Program
	rec.layer(parent, "interp.compile", func() { pr, err = interp.Compile(m, reg) })
	if err != nil {
		return out, fmt.Errorf("compile: %w", err)
	}
	var lp *lower.Program
	rec.layer(parent, "lower.lower", func() { lp = lower.Lower(pr) })
	if lp == nil {
		return out, fmt.Errorf("lower returned no program")
	}
	rec.layer(parent, "cppgen.generate", func() { out.cpp, err = cppgen.NewWith(reg, cppgen.DefaultOptions()).Generate(m) })
	if err != nil {
		return out, fmt.Errorf("cppgen: %w", err)
	}
	rec.layer(parent, "gogen.generate", func() { out.gosrc, err = gogen.NewWith(reg, gogen.DefaultOptions()).Generate(m) })
	if err != nil {
		return out, fmt.Errorf("gogen: %w", err)
	}
	for _, d := range m.Diagrams() {
		out.nodes += len(d.Nodes())
	}
	return out, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// transformInput is the XMI text of the k-th model of a run: a fresh
// modelgen model, so no op sees content an earlier op has seen.
func transformInput(seed int64, k int) (string, error) {
	m, err := modelgen.Generate(modelgen.Params{Seed: splitmix(seed, k), Nodes: transformNodes})
	if err != nil {
		return "", err
	}
	return xmi.EncodeString(m)
}

// runTransform times one op per fresh model: XMI text in, C++ and Go out.
// Generating the model is the load generator's work and is not timed;
// each op starts from a collected heap, as a one-shot teuta run would.
func runTransform(cfg config) (*outcome, error) {
	out := &outcome{}
	err := timeSetup(out, func() error {
		text, err := transformInput(cfg.seed, -1)
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, err := transform(text, nil, 0); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		traced, untraced []time.Duration
		nodes, cppBytes  []float64
		allocBytes       uint64
		gcCycles         uint32
		ms0, ms1         runtime.MemStats
		first            generated
		firstText        string
		runSum           = sha256.New()
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		text, err := transformInput(cfg.seed, k)
		if err != nil {
			return nil, err
		}
		useRec := cfg.trace && k%2 == 1
		runtime.GC()
		if cfg.trace {
			runtime.ReadMemStats(&ms0)
		}
		var root int
		if useRec {
			root = rec.begin(0, "op", "")
		}
		start := time.Now()
		var g generated
		if useRec {
			g, err = transform(text, rec, root)
			rec.end(root)
		} else {
			g, err = transform(text, nil, 0)
		}
		d := time.Since(start)
		if cfg.trace {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			gcCycles += ms1.NumGC - ms0.NumGC
		}
		out.attempted++
		if err != nil {
			out.fail("op %d: %v", k, err)
			continue
		}
		if err := cppgen.ValidateStructure(g.cpp); err != nil {
			out.fail("op %d: generated C++: %v", k, err)
			continue
		}
		if k < digestOps {
			fmt.Fprintf(runSum, "%s %s\n", digest(g.cpp), digest(g.gosrc))
		}
		if k == 0 {
			first, firstText = g, text
		}
		nodes = append(nodes, float64(g.nodes))
		cppBytes = append(cppBytes, float64(len(g.cpp)))
		if useRec {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
			out.busy += d
		}
	}
	out.ops = untraced
	if out.peakRSSKB, err = peakRSSKB("self"); err != nil {
		return nil, err
	}

	// The same input must give the same output on a second pass, and the
	// canary model must give the pinned output.
	if firstText != "" {
		again, err := transform(firstText, nil, 0)
		switch {
		case err != nil:
			out.fail("repeat of op 0: %v", err)
		case again.cpp != first.cpp || again.gosrc != first.gosrc:
			out.fail("repeat of op 0: generated code differs between passes")
		}
	}
	canary, err := canaryOutput()
	if err != nil {
		out.fail("canary: %v", err)
	} else if c, g := digest(canary.cpp), digest(canary.gosrc); c != canaryCppDigest || g != canaryGoDigest {
		out.fail("canary digests cpp %s go %s, want cpp %s go %s", c, g, canaryCppDigest, canaryGoDigest)
	}
	out.report = append(out.report,
		fmt.Sprintf("transform: %d ops of ~%d-node models; digest of the first %d ops' output %x", out.attempted, transformNodes, digestOps, runSum.Sum(nil)[:8]),
		"correctness: cppgen.ValidateStructure on every op, op 0 repeated byte-identically, canary digests pinned")

	if cfg.trace {
		spans := rec.finish()
		path, err := writeSpans(cfg.spansDir, cfg, spans)
		if err != nil {
			return nil, err
		}
		out.report = append(out.report, "spans written to "+path)
		out.layers = medians(spans)
		n := float64(len(traced) + len(untraced))
		out.layers["uml.nodes_per_op"] = median(nodes)
		out.layers["cppgen.bytes_per_op"] = median(cppBytes)
		out.layers["go.alloc_mb_per_op"] = float64(allocBytes) / n / (1 << 20)
		out.layers["go.gc_cycles_per_op"] = float64(gcCycles) / n
		out.layers["tracing_overhead_pct"] = overheadPct(traced, untraced)
	}
	return out, nil
}

func canaryOutput() (generated, error) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 42, Nodes: transformNodes})
	if err != nil {
		return generated{}, err
	}
	text, err := xmi.EncodeString(m)
	if err != nil {
		return generated{}, err
	}
	return transform(text, nil, 0)
}
