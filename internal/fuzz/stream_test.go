package fuzz

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// undeclared parses but fails sema, so neither the manager's parse nor
// the compile context's Check accepts it.
const undeclared = "int main() { return undeclared_name; }\n"

func newTestStream(seed int64) *stream {
	s := &stream{}
	s.init("t", compilersim.New("gcc", 14), muast.All(), nil,
		rand.New(rand.NewSource(seed)))
	return s
}

// TestStreamManagerReuse pins stream.manager's cache: the same text
// hands back the same manager Reset to fresh state without a parse
// (a parse always builds a new manager), other text re-parses, and a
// text that fails to check leaves no manager behind.
func TestStreamManagerReuse(t *testing.T) {
	s := newTestStream(1)
	pool := seeds.Generate(2, 3)

	t.Run("same text", func(t *testing.T) {
		m1, err := s.manager(pool[0])
		if err != nil {
			t.Fatal(err)
		}
		tu := m1.TU
		m1.SetFuel(5)
		m1.GenerateUniqueName("v")
		m1.ReplaceNode(m1.Functions()[0], "")
		// An equal text at another address is still the same program.
		m2, err := s.manager(strings.Clone(pool[0]))
		if err != nil {
			t.Fatal(err)
		}
		if m2 != m1 || m2.TU != tu {
			t.Fatal("same text was re-parsed")
		}
		if m2.Changed() || m2.Fuel() != muast.DefaultFuel {
			t.Fatalf("reused manager not fresh: changed=%v fuel=%d", m2.Changed(), m2.Fuel())
		}
		if got, want := m2.GenerateUniqueName("v"), muast.NewManagerFromTU(tu, nil).GenerateUniqueName("v"); got != want {
			t.Fatalf("name sequence not reset: %q, fresh manager gives %q", got, want)
		}
	})

	t.Run("changed text", func(t *testing.T) {
		m1, err := s.manager(pool[0])
		if err != nil {
			t.Fatal(err)
		}
		m2, err := s.manager(pool[1])
		if err != nil {
			t.Fatal(err)
		}
		if m2 == m1 || m2.TU.Source != pool[1] {
			t.Fatal("changed text did not re-parse")
		}
	})

	t.Run("check fails", func(t *testing.T) {
		if _, err := s.manager(pool[0]); err != nil {
			t.Fatal(err)
		}
		if m, err := s.manager(undeclared); err == nil || m != nil {
			t.Fatalf("manager(undeclared) = %v, %v; want nil and an error", m, err)
		}
		if s.mgr != nil {
			t.Fatal("a failed parse left a manager behind")
		}
	})
}

// TestStreamCheckSplice pins the check step both fuzzers share: a
// mutant that fails to check is not spliced and costs no draw, and
// whatever text check returns is the one the compile context holds.
func TestStreamCheckSplice(t *testing.T) {
	t.Run("no splice of a rejected mutant", func(t *testing.T) {
		s := newTestStream(4)
		ref := rand.New(rand.NewSource(4))
		out, err := s.check(undeclared, true)
		if err == nil || out != undeclared || s.cx.TU() != nil {
			t.Fatalf("check(undeclared) = %q, %v; want it back with an error", out, err)
		}
		if s.rng.Int63() != ref.Int63() {
			t.Fatal("a rejected mutant drew from the stream RNG")
		}
	})

	t.Run("context holds the returned text", func(t *testing.T) {
		s := newTestStream(5)
		checked := 0
		for _, src := range seeds.Generate(12, 6) {
			for draw := 0; draw < 4; draw++ {
				out, err := s.check(src, true)
				if tu := s.cx.TU(); (tu == nil) != (err != nil) {
					t.Fatalf("TU() = %v with Check error %v", tu, err)
				}
				if out == src || err != nil {
					continue
				}
				if got := s.cx.TU().Source; got != out {
					t.Fatalf("context holds %q, check returned %q", got, out)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no splice produced a checking program")
		}
	})
}
