package cast

import "sync"

// tokenPool recycles the token slices Parse lexes into. Every compile
// of every mutant lexes a fresh token stream (compilersim parses each
// mutant, the fuzzers parse each pool program), and nothing retains the
// slice after parsing — AST nodes copy the strings they need — so the
// buffers recycle cleanly across parses and goroutines.
var tokenPool = sync.Pool{
	New: func() any {
		s := make([]Token, 0, 512)
		return &s
	},
}
