package muast

import (
	"regexp"
	"slices"
	"testing"
)

// referenceIdentRe is the reference token rule: the identifiers
// hasIdent must find are exactly those the regexp finds scanning left
// to right.
var referenceIdentRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// FuzzHasIdentMatchesRegexp holds hasIdent to referenceIdentRe over arbitrary
// bytes and candidates, so GenerateUniqueName rejects exactly the
// candidates a regexp-built identifier set would contain.
func FuzzHasIdentMatchesRegexp(f *testing.F) {
	f.Add(prog, "add3")
	f.Add(prog, "gv_1")
	f.Add("int 9x_1 = x_1;", "x_1")
	f.Add("0tmp_1 tmp_12 _tmp_1", "tmp_1")
	f.Add("a\xffb_2 \xc3b_2", "b_2")
	f.Add("x", "")
	f.Add("1_a", "_a")
	f.Fuzz(func(t *testing.T, src, name string) {
		want := slices.Contains(referenceIdentRe.FindAllString(src, -1), name)
		if got := hasIdent(src, name); got != want {
			t.Fatalf("hasIdent(%q, %q) = %v, regexp reference says %v", src, name, got, want)
		}
	})
}
