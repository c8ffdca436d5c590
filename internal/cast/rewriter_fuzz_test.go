package cast

import (
	"strconv"
	"testing"
)

// FuzzRewriterComposition holds Rewritten's in-place sort to its
// contract: rendering does not change what later edits compose with.
// Edits decoded from ops are recorded in two batches with a Rewritten
// between them, and the final text must equal that of a fresh rewriter
// given every edit at once; a second Rewritten must repeat the first.
// Each op is four bytes: begin, length, text length, and a flag byte
// whose low bit makes the edit an insertion.
func FuzzRewriterComposition(f *testing.F) {
	f.Add("int main(void) { return 0; }", []byte{4, 4, 2, 0, 4, 0, 1, 1, 16, 9, 3, 0, 0, 0, 2, 1}, uint8(2))
	f.Add("abcdef", []byte{1, 2, 1, 0, 1, 0, 1, 1, 1, 0, 2, 1, 3, 1, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, src string, ops []byte, split uint8) {
		type op struct {
			r    SourceRange
			text string
		}
		var edits []op
		for i := 0; i+4 <= len(ops); i += 4 {
			begin := int(ops[i]) % (len(src) + 1)
			end := begin
			if ops[i+3]&1 == 0 {
				end += int(ops[i+1]) % (len(src) - begin + 1)
			}
			text := "<" + strconv.Itoa(len(edits)) + ":" + src[:min(int(ops[i+2])%4, len(src))] + ">"
			edits = append(edits, op{SourceRange{begin, end}, text})
		}
		k := int(split) % (len(edits) + 1)

		batched, fresh := NewRewriter(src), NewRewriter(src)
		for i, e := range edits {
			if i == k {
				batched.Rewritten()
			}
			if got, want := batched.ReplaceText(e.r, e.text), fresh.ReplaceText(e.r, e.text); got != want {
				t.Fatalf("edit %d %+v: accepted %v after a Rewritten, %v without", i, e, got, want)
			}
		}
		got := batched.Rewritten()
		if want := fresh.Rewritten(); got != want {
			t.Fatalf("batches split at %d render\n%q\none batch renders\n%q", k, got, want)
		}
		if again := batched.Rewritten(); again != got {
			t.Fatalf("second Rewritten gave\n%q\nfirst gave\n%q", again, got)
		}
	})
}
