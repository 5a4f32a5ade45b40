package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"snnfi/internal/suite"
)

// networkDigests pins the network-cold artifacts (100 images, 100+100
// neurons, 250 steps, seed 7), for which no golden exists. Recorded
// with `go run ./cmd/figures -only F7b,F8a,F8b,F8c,F9a,D2,D3,D4,D5,E1,E2
// -n 100 -neurons 100 -steps 250 -workers 2` and `sha256sum`; the
// benchmark's own passes reproduce them.
var networkDigests = map[string]string{
	"d2_bandgap.csv":                   "d7cbf494174069cd5d223ce409464f060f4d23ae2416ba27b95b7a97c5409606",
	"d3_detection_coverage.csv":        "0c35653b11ad4c1d07540d260d27c8af7fdabded47c52f079bfa3fb720c1c61e",
	"d4_attack5_variation.csv":         "1247037a13c9469f1b967b7556c2fe27cc226334270a98b376a109f5b9342f3e",
	"d5_attack5_variation_roc.csv":     "139aee47b303b96c7ff9e5993323503ca1289f204f7e6073ad875cd228463285",
	"e1_weight_fault.csv":              "4b242ad0cacff889f74433d7a7bdd1f61288f72c98eafd740a927eae5ada5ba8",
	"e2_learning_rate.csv":             "836f29a166d73c60ddafe1a3fdee1aea6e89224a08df8ac1160b2a864309ebf4",
	"fig7b_attack1_theta.csv":          "e417d4850259a5116a9f2d1c62be7bc6ebf1989d1ec44c4a16e7835a7c7fcbb5",
	"fig8a_attack_excitatory_grid.csv": "322c633ca737ca7446bbf70f44f57aad418cabb1a71b70f8c5f38914abd7f8a5",
	"fig8b_attack_inhibitory_grid.csv": "fe69e05302217422088e9bac99d74dfde593eb844a5d6ff409769b51d00b74ca",
	"fig8c_attack4_both_layers.csv":    "9332c81e925766277a12a3dfb7a02c8f64563be24394701e74e414d16747e22e",
	"fig9a_attack5_vdd.csv":            "0b53e3856db938aca752bb0dcb5efe8e10423ca3db1e624704745caa7a0854e4",
}

// artifact is one CSV a pass wrote and the entry that wrote it.
type artifact struct {
	entry *suite.Entry
	data  []byte
}

// refs decides what each artifact must contain. At the default seed
// every artifact has a fixed digest: a golden of cmd/figures or a pin
// above. At another seed only artifacts that never read the corpus
// keep their fixed digest; the others must reproduce, byte for byte,
// what the run's first pass wrote.
type refs struct {
	fixed       map[string]string // artifact name → sha256 at the default seed
	defaultSeed bool
	first       map[string]string // artifact name → sha256 of its first production
}

func loadRefs(root string, wl workload, seed int64) (*refs, error) {
	r := &refs{fixed: wl.pinned, defaultSeed: seed == defaultSeed, first: map[string]string{}}
	if r.fixed != nil {
		return r, nil
	}
	dir := filepath.Join(root, "cmd", "figures", "testdata", "golden")
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden artifacts under %s: run from a repository checkout", dir)
	}
	r.fixed = make(map[string]string, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r.fixed[filepath.Base(f)] = digest(data)
	}
	return r, nil
}

// check compares one pass's artifacts with their references. Each
// expected artifact is one attempted operation, and so is each
// unexpected one; every missing, differing or unexpected artifact is a
// problem.
func (r *refs) check(got map[string]artifact) (attempted int64, problems []string) {
	for name, want := range r.fixed {
		attempted++
		a, ok := got[name]
		if !ok {
			problems = append(problems, name+": not written")
			continue
		}
		sum := digest(a.data)
		if r.defaultSeed || corpusFree(a.entry) {
			if sum != want {
				problems = append(problems, fmt.Sprintf("%s: sha256 %s, want %s", name, sum, want))
			}
			continue
		}
		if first, ok := r.first[name]; !ok {
			r.first[name] = sum
		} else if sum != first {
			problems = append(problems, fmt.Sprintf("%s: sha256 %s differs from the first pass's %s", name, sum, first))
		}
	}
	for name := range got {
		if _, ok := r.fixed[name]; !ok {
			attempted++
			problems = append(problems, name+": unexpected artifact")
		}
	}
	return attempted, problems
}

// corpusFree reports whether an entry's artifact is independent of the
// image corpus: circuit-tier and analytic entries never train. In the
// combined circuit+scenario form the circuit series owns the output
// and the scenario only prints.
func corpusFree(e *suite.Entry) bool {
	return e.Waveform != nil || len(e.Circuit) > 0 || e.MonteCarlo != nil ||
		e.Detection != nil || e.Overhead != nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
