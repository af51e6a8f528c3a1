package campaign

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// digestFile pins what Prepare builds for every cell of the grid in
// TestPrepareDigests. Regenerate it only for a change that means to
// alter the instrumented module:
//
//	go test ./internal/campaign/ -run TestPrepareDigests -update
const digestFile = "testdata/prepare_digests.txt"

var updateDigests = flag.Bool("update", false, "rewrite "+digestFile)

// digestVariants are the preparation modes the gate covers: the plain
// cell, all three detectors, and the two site-model ablations.
var digestVariants = []struct {
	name string
	set  func(*Config)
}{
	{"plain", func(*Config) {}},
	{"detectors", func(c *Config) {
		c.Detectors, c.BroadcastDetector, c.MaskLoopDetector = true, true, true
	}},
	{"whole-register", func(c *Config) { c.WholeRegisterSites = true }},
	{"mask-oblivious", func(c *Config) { c.MaskOblivious = true }},
}

// prepareDigest hashes what instrumentation decided for one cell: the
// printed module, the lane-site table and every selected site's
// forward-slice flags.
func prepareDigest(p *Prepared) string {
	h := sha256.New()
	fmt.Fprintln(h, p.Res.Module.String())
	for _, ls := range p.Inst.LaneSites {
		fmt.Fprintf(h, "lane %d %d %d\n", ls.ID, ls.Site.ID, ls.Lane)
	}
	for _, s := range p.Inst.Sites {
		fmt.Fprintf(h, "site %d %t %t\n", s.ID, s.Flags.Control, s.Flags.Address)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPrepareDigests is the byte-identity gate for site enumeration and
// instrumentation: every benchmark on every ISA in isa.Extended, in
// every category and preparation mode, must build exactly the module,
// lane-site table and site flags recorded in digestFile. The cells
// prepare for the vm backend, so vm.Compile lowers each cell's module
// too; the digests hash the IR, not the bytecode.
func TestPrepareDigests(t *testing.T) {
	var got []string
	for _, b := range benchmarks.All() {
		for _, target := range isa.Extended {
			for _, c := range passes.AllCategories {
				for _, v := range digestVariants {
					cfg := Config{
						Benchmark: b, ISA: target, Category: c,
						Scale: benchmarks.ScaleTest, Experiments: 1, Campaigns: 1,
						Workers: 1, Backend: "vm",
					}
					v.set(&cfg)
					name := strings.Join([]string{b.Name, target.Name, c.String(), v.name}, "/")
					p, err := Prepare(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got = append(got, name+" "+prepareDigest(p))
				}
			}
		}
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, %s has %d", len(got), digestFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
