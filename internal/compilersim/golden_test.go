package compilersim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDigestPath holds one SHA-256 per (compiler, -O level, program)
// over contextCorpus. It was recorded from the compile path as it
// stood before the mutant result cache was removed, so it is a
// reference independent of the code it checks.
const goldenDigestPath = "testdata/compile_digest.txt"

// resultDigest hashes every field of r in a fixed order: OK and Hang,
// coverage words, crash, diagnostics, features sorted by key, object.
// Variable-length parts are length-prefixed so no two results share an
// encoding.
func resultDigest(r Result) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			num(1)
		} else {
			num(0)
		}
	}
	flag(r.OK)
	flag(r.Hang)
	flag(r.Coverage != nil)
	if r.Coverage != nil {
		for _, w := range r.Coverage.Words() {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	flag(r.Crash != nil)
	if c := r.Crash; c != nil {
		str(c.BugID)
		num(int(c.Component))
		num(int(c.Kind))
		str(c.Frames[0])
		str(c.Frames[1])
		str(c.Message)
	}
	num(len(r.Diagnostics))
	for _, d := range r.Diagnostics {
		str(d)
	}
	keys := FeatureNames(r.Feats)
	num(len(keys))
	for _, k := range keys {
		str(k)
		num(r.Feats[k])
	}
	flag(r.Object != nil)
	if o := r.Object; o != nil {
		num(len(o.Instrs))
		for _, in := range o.Instrs {
			num(int(in.Op))
			num(in.Reg)
		}
		num(o.Spills)
		num(o.Funcs)
		num(o.TextSize)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompileGoldenDigest checks every compile entry point against the
// committed digest: every seed program (and the damaged variants that
// reach the lexer, parser and sema error paths) under gcc 14 and
// clang 18 at -O0..-O3. Context.Compile and the staged Check +
// CompileChecked sequence the fuzzers run each go through one reused
// context per compiler, so state leaking between programs shows up as
// a digest mismatch. A missing digest file is written from the current
// code and the test fails, so a regenerated reference is always
// reviewed before it is committed.
func TestCompileGoldenDigest(t *testing.T) {
	var lines []string
	var crashes, diags int
	for _, prof := range []struct {
		name    string
		version int
	}{{"gcc", 14}, {"clang", 18}} {
		comp := New(prof.name, prof.version)
		cx, staged := comp.NewContext(), comp.NewContext()
		for level := 0; level <= 3; level++ {
			opts := Options{OptLevel: level}
			for i, src := range contextCorpus() {
				key := fmt.Sprintf("%s%d %s p%02d", prof.name, prof.version, opts.FlagString(), i)
				owned := comp.Compile(src, opts)
				want := resultDigest(owned)
				if got := resultDigest(cx.Compile(src, opts)); got != want {
					t.Errorf("%s: Context.Compile digest %s differs from Compiler.Compile %s", key, got, want)
				}
				staged.Check(src)
				if got := resultDigest(staged.CompileChecked(opts)); got != want {
					t.Errorf("%s: Check + CompileChecked digest %s differs from Compiler.Compile %s", key, got, want)
				}
				if owned.Crash != nil {
					crashes++
				}
				if len(owned.Diagnostics) > 0 {
					diags++
				}
				lines = append(lines, key+" "+want)
			}
		}
	}
	if crashes == 0 || diags == 0 {
		t.Fatalf("digest corpus reaches %d crashes and %d rejects; it must reach both", crashes, diags)
	}

	f, err := os.Open(goldenDigestPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d results); review and commit it", goldenDigestPath, len(lines))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var golden []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		golden = append(golden, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(lines) {
		t.Fatalf("%s has %d results, the corpus compiles %d", goldenDigestPath, len(golden), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != golden[i] {
			bad++
			if bad <= 5 {
				t.Errorf("result changed:\n got %s\nwant %s", lines[i], golden[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d compile results differ from %s", bad, len(lines), goldenDigestPath)
	}
}
