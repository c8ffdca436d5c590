package compilersim

import (
	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
)

// Context is a reusable per-stream compile context — the persistent-mode
// analogue for the simulated compiler. It owns every buffer one
// compilation needs (coverage map, tracers, AST arena, IR generator,
// optimizer scratch, back-end scratch), so the mutate→compile→cover hot
// loop stops re-allocating them per mutant.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - A Context is NOT safe for concurrent use. One context per stream,
//     the same discipline as the stream RNG.
//   - Results returned by Compile and CompileChecked are BORROWED:
//     Coverage, Feats, Diagnostics and Object alias context-owned
//     storage and are valid only until the next Check (or Compile) on
//     the same context. Callers that retain anything (corpus
//     admission, crash reports) must copy what they keep — coverage is
//     typically merged immediately, which is a copy by construction.
//   - Compiler.Compile keeps its owning contract: it compiles on a
//     fresh context, so its result is owned by construction.
type Context struct {
	c *Compiler

	cov   cover.Map
	feTr  cover.Tracer
	irTr  cover.Tracer
	optTr cover.Tracer
	beTr  cover.Tracer

	feats Features
	tc    TriggerCtx
	diags []string

	lx    *cast.Lexer
	toks  []cast.Token
	arena *cast.Arena
	g     irgen
	o     optimizer
	be    codegen

	// tu is the arena-owned tree of the last Check, nil unless that
	// Check accepted its program.
	tu *cast.TranslationUnit

	// passes is the scratch slice the optimizer's pass list is filtered
	// into on each compile.
	passes []Pass
}

// NewContext returns a fresh reusable compile context for c.
func (c *Compiler) NewContext() *Context {
	cx := &Context{
		c:     c,
		feats: Features{},
		lx:    cast.NewLexer(""),
		arena: cast.NewArena(),
	}
	cx.g.initMaps()
	cx.o.initScratch()
	return cx
}

// Compile runs the full pipeline on src through this context: Check,
// then CompileChecked. The result is borrowed.
func (cx *Context) Compile(src string, opts Options) Result {
	cx.Check(src)
	return cx.CompileChecked(opts)
}

// Check runs the front end on src: one lex serves both the lexical
// coverage walk and the parser, then the arena parse, the parse-tree
// coverage walk and sema. It returns the lex or parse error, the
// cast.SemaErrors, or nil when src is a valid program — the same
// verdict as cast.Parse + cast.Check, which is what makes Check the
// fuzzers' static filter. The checked tree lives in the context's
// arena until the next Check. Follow Check with CompileChecked to
// finish the compile; a filtered-out mutant simply never does.
func (cx *Context) Check(src string) error {
	c := cx.c
	cx.cov.Reset()
	clear(cx.feats)
	cx.diags = cx.diags[:0]
	diags := cx.diags
	covMap := &cx.cov
	cx.tc = TriggerCtx{Source: src, Feats: cx.feats}
	tc := &cx.tc
	cx.tu = nil

	// Lexical coverage runs even for garbage input — token-kind edges
	// are the coverage a byte-level fuzzer climbs with invalid inputs.
	// It is capped at the first 200000 tokens, exactly like the
	// standalone token walk it replaces; lexing itself continues so the
	// parser sees the full stream.
	cx.feTr.ResetTo(covMap, c.feSeed)
	feTrace := &cx.feTr
	cx.lx.Reset(src)
	toks := cx.toks[:0]
	var lexErr error
	for i := 0; ; i++ {
		tok, err := cx.lx.Next()
		if err != nil {
			lexErr = err
			if i < 200000 {
				feTrace.HitN("lex.error", i%59)
			}
			break
		}
		toks = append(toks, tok)
		if tok.Kind == cast.TokEOF {
			if i < 200000 {
				feTrace.HitStr("lex.eof")
			}
			break
		}
		if i < 200000 {
			feTrace.HitNHash(lexSiteHash[tok.Kind], len(tok.Text)%7)
		}
	}
	cx.toks = toks

	var tu *cast.TranslationUnit
	err := lexErr
	if err == nil {
		cx.arena.Reset()
		tu, err = cast.ParseTokens(src, toks, cx.arena)
	}
	tc.ParseOK = err == nil
	if err != nil {
		diags = append(diags, err.Error())
		// Error recovery is code too: distinct syntactic failure points
		// exercise distinct diagnostic paths — the coverage a byte-level
		// fuzzer climbs.
		if pe, ok := err.(*cast.ParseError); ok {
			feTrace.HitN("parse.error", pe.Line%53)
			feTrace.HitStr("parse.msg." + diagClass(pe.Msg))
		} else {
			feTrace.HitStr("parse.error")
		}
	} else {
		// Parse-tree coverage: node-kind edges in source order.
		cast.Walk(tu, func(n cast.Node) bool {
			feTrace.Hit(astSiteHash[n.Kind()])
			return true
		})
		if err = cast.Check(tu); err != nil {
			if se, ok := err.(cast.SemaErrors); ok {
				for _, e := range se {
					diags = append(diags, e.Error())
					feTrace.HitN("sema."+diagClass(e.Msg), e.Offset%41)
				}
			} else {
				diags = append(diags, err.Error())
			}
		} else {
			tc.CheckOK = true
			cx.tu = tu
		}
	}
	cx.diags = diags
	return err
}

// TU returns the tree the last Check accepted, or nil if it rejected
// its program. The tree lives in the context's arena until the next Check.
func (cx *Context) TU() *cast.TranslationUnit { return cx.tu }

// CompileChecked finishes the compile the last Check on this context
// started: the front-end defect checks, IR generation, the optimizer
// and the back-end under opts. A program Check rejected still runs the
// front-end defect checks (error-recovery paths crash too) and yields
// the reject Result. The result is borrowed, like Compile's.
func (cx *Context) CompileChecked(opts Options) Result {
	res := cx.compileChecked(opts)
	if t := cx.c.tele; t != nil {
		t.record(cx.c, res)
	}
	return res
}

// compileChecked is the uninstrumented back half of the pipeline.
func (cx *Context) compileChecked(opts Options) Result {
	c := cx.c
	covMap, feats, diags := &cx.cov, cx.feats, cx.diags
	tc := &cx.tc
	tc.OptLevel = opts.OptLevel

	// Front-end defects can fire on any input (error-recovery paths).
	if crash := c.checkBugs(tc, FrontEnd); crash != nil {
		return c.crashResult(crash, covMap, feats, diags)
	}
	if cx.tu == nil {
		return Result{OK: false, Diagnostics: diags, Coverage: covMap, Feats: feats}
	}

	// ---- IR generation.
	cx.irTr.ResetTo(covMap, c.irSeed)
	cx.g.trace = &cx.irTr
	cx.g.feats = feats
	prog := cx.g.generate(cx.tu)
	if crash := c.checkBugs(tc, IRGen); crash != nil {
		return c.crashResult(crash, covMap, feats, diags)
	}

	// ---- Optimizer.
	if opts.OptLevel >= 1 {
		cx.optTr.ResetTo(covMap, c.optSeed)
		cx.o.trace = &cx.optTr
		cx.o.feats = feats
		cx.o.prog = prog
		cx.passes = c.appendEnabledPasses(cx.passes[:0], opts)
		cx.o.run(cx.passes)
		if crash := c.checkBugs(tc, Opt); crash != nil {
			return c.crashResult(crash, covMap, feats, diags)
		}
	}

	// ---- Back-end.
	cx.beTr.ResetTo(covMap, c.beSeed)
	obj := cx.be.generate(prog, &cx.beTr, feats)
	if crash := c.checkBugs(tc, BackEnd); crash != nil {
		return c.crashResult(crash, covMap, feats, diags)
	}

	return Result{OK: true, Coverage: covMap, Object: obj, Feats: feats}
}
