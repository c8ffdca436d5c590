package compilersim

import (
	"fmt"
	"math"

	"github.com/icsnju/metamut-go/internal/compilersim/ir"
)

// The IR interpreter executes compiled programs, which enables
// differential testing across optimization levels — the miscompilation-
// detection channel that generators like Csmith rely on (Section 6's
// related work), complementing the crash channel the paper's fuzzers use.
//
// Memory model: every global and every local slot owns a fixed-size byte
// buffer; pointers are tagged 64-bit encodings of (space, frame, slot,
// offset). Loads and stores move 8 bytes. The model is internally
// consistent rather than exactly C — what matters for differential
// testing is that -O0 and -O2 must agree on it.

// ExecStatus classifies an execution.
type ExecStatus int

// Execution outcomes.
const (
	ExecOK ExecStatus = iota
	ExecTrap
	ExecTimeout
)

var execStatusNames = [...]string{"ok", "trap", "timeout"}

// String returns the status label.
func (s ExecStatus) String() string { return execStatusNames[s] }

// ExecResult is one program execution's outcome.
type ExecResult struct {
	Status ExecStatus
	// Return is the entry function's return value (valid when OK).
	Return int64
	// TrapMsg describes the trap (abort, bad pointer, ...).
	TrapMsg string
	// Steps is the number of executed instructions.
	Steps int
	// Output collects printf/puts/putchar byte counts (a cheap stand-in
	// for stdout comparison).
	Output int
}

// slotSize is the byte buffer size backing each local slot and the
// minimum granted to globals.
const slotSize = 256

// pointer encoding: bit63 set | space(1b at 62: 0=global,1=local) |
// frame(14b) | slot(16b) | offset(20b).
const (
	ptrFlag   = int64(-1) << 63 // bit 63
	spaceBit  = int64(1) << 62
	frameMask = int64(1<<14 - 1)
	slotMask  = int64(1<<16 - 1)
	offMask   = int64(1<<20 - 1)
)

func encodePtr(local bool, frame, slot, off int64) int64 {
	p := ptrFlag | (frame&frameMask)<<36 | (slot&slotMask)<<20 | (off & offMask)
	if local {
		p |= spaceBit
	}
	return p
}

func isPtr(v int64) bool { return v&ptrFlag != 0 }

func decodePtr(v int64) (local bool, frame, slot, off int64) {
	return v&spaceBit != 0, (v >> 36) & frameMask, (v >> 20) & slotMask, v & offMask
}

// Interp executes IR programs.
type Interp struct {
	prog *ir.Program
	// globals holds each global's backing store.
	globals [][]byte
	// frames is the live call stack; pointers into dead frames trap.
	frames []*frame
	// MaxSteps bounds execution (default 200k).
	MaxSteps int
	// MaxDepth bounds recursion.
	MaxDepth int

	steps  int
	output int
}

type frame struct {
	fn     *ir.Func
	id     int64
	locals [][]byte
	temps  map[int64]int64
	params []int64
	alive  bool
}

// NewInterp prepares an interpreter over prog.
func NewInterp(prog *ir.Program) *Interp {
	in := &Interp{prog: prog, MaxSteps: 200000, MaxDepth: 64}
	for _, g := range prog.Globals {
		size := g.Size
		if size < slotSize {
			size = slotSize
		}
		buf := make([]byte, size)
		copy(buf, g.Data)
		in.globals = append(in.globals, buf)
	}
	return in
}

// trapErr signals a trap through the call stack.
type trapErr struct{ msg string }

func (e trapErr) Error() string { return e.msg }

// Execute runs the named entry function with integer arguments.
func (in *Interp) Execute(entry string, args []int64) ExecResult {
	fn := in.prog.FuncByName(entry)
	if fn == nil {
		return ExecResult{Status: ExecTrap, TrapMsg: "no entry " + entry}
	}
	in.steps, in.output = 0, 0
	ret, err := in.call(fn, args)
	res := ExecResult{Return: ret, Steps: in.steps, Output: in.output}
	switch e := err.(type) {
	case nil:
		res.Status = ExecOK
	case trapErr:
		if e.msg == "timeout" {
			res.Status = ExecTimeout
		} else {
			res.Status = ExecTrap
		}
		res.TrapMsg = e.msg
	default:
		res.Status = ExecTrap
		res.TrapMsg = err.Error()
	}
	return res
}

func (in *Interp) call(fn *ir.Func, args []int64) (int64, error) {
	if len(in.frames) >= in.MaxDepth {
		return 0, trapErr{"stack overflow"}
	}
	fr := &frame{
		fn: fn, id: int64(len(in.frames)),
		temps: map[int64]int64{}, params: args, alive: true,
	}
	for i := 0; i < fn.Locals; i++ {
		fr.locals = append(fr.locals, make([]byte, slotSize))
	}
	in.frames = append(in.frames, fr)
	defer func() {
		fr.alive = false
		in.frames = in.frames[:len(in.frames)-1]
	}()

	if len(fn.Blocks) == 0 {
		return 0, nil
	}
	blockID := 0
	for {
		if blockID < 0 || blockID >= len(fn.Blocks) {
			return 0, trapErr{"branch out of range"}
		}
		b := fn.Blocks[blockID]
		if len(b.Instrs) == 0 {
			// A DCE-emptied block: fall through to the next one.
			blockID++
			if blockID >= len(fn.Blocks) {
				return 0, nil
			}
			continue
		}
		next, ret, done, err := in.execBlock(fr, b)
		if err != nil {
			return 0, err
		}
		if done {
			return ret, nil
		}
		blockID = int(next)
	}
}

// execBlock runs one block; returns the successor, or done with a return
// value.
func (in *Interp) execBlock(fr *frame, b *ir.Block) (next int64, ret int64, done bool, err error) {
	for i := range b.Instrs {
		if in.steps++; in.steps > in.MaxSteps {
			return 0, 0, false, trapErr{"timeout"}
		}
		instr := &b.Instrs[i]
		switch instr.Op {
		case ir.OpNop:
		case ir.OpConst, ir.OpCopy, ir.OpConvert:
			fr.temps[instr.Dst.ID], err = in.value(fr, instr.A)
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpShl,
			ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpCmpEQ, ir.OpCmpNE,
			ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
			ir.OpVecAdd, ir.OpVecMul:
			var a, bv int64
			if a, err = in.value(fr, instr.A); err == nil {
				if bv, err = in.value(fr, instr.B); err == nil {
					fr.temps[instr.Dst.ID], err = in.binop(instr, a, bv)
				}
			}
		case ir.OpNeg:
			var a int64
			if a, err = in.value(fr, instr.A); err == nil {
				if instr.Float {
					fr.temps[instr.Dst.ID] = int64(math.Float64bits(
						-math.Float64frombits(uint64(a))))
				} else {
					fr.temps[instr.Dst.ID] = -a
				}
			}
		case ir.OpNot:
			var a int64
			if a, err = in.value(fr, instr.A); err == nil {
				fr.temps[instr.Dst.ID] = ^a
			}
		case ir.OpLNot:
			var a int64
			if a, err = in.value(fr, instr.A); err == nil {
				fr.temps[instr.Dst.ID] = b2i(a == 0)
			}
		case ir.OpAddr:
			fr.temps[instr.Dst.ID], err = in.address(fr, instr.A, instr.B)
		case ir.OpLoad:
			// Parameters live in registers, not memory: a load with a
			// parameter base reads the slot directly.
			if instr.A.Kind == ir.VParam {
				fr.temps[instr.Dst.ID], err = in.value(fr, instr.A)
				break
			}
			var p int64
			if p, err = in.loadAddress(fr, instr.A, instr.B); err == nil {
				fr.temps[instr.Dst.ID], err = in.read(p, instr.Width)
			}
		case ir.OpStore:
			if instr.A.Kind == ir.VParam {
				var v int64
				if v, err = in.value(fr, instr.C); err == nil {
					for int(instr.A.ID) >= len(fr.params) {
						fr.params = append(fr.params, 0)
					}
					fr.params[instr.A.ID] = v
				}
				break
			}
			var p, v int64
			if p, err = in.loadAddress(fr, instr.A, instr.B); err == nil {
				if v, err = in.value(fr, instr.C); err == nil {
					err = in.write(p, v, instr.Width)
				}
			}
		case ir.OpCall:
			fr.temps[instr.Dst.ID], err = in.dispatchCall(fr, instr)
		case ir.OpStrLen:
			var p int64
			if p, err = in.value(fr, instr.A); err == nil {
				fr.temps[instr.Dst.ID], err = in.strlen(p)
			}
		case ir.OpRet:
			var v int64
			if instr.A.Kind != ir.VNone {
				v, err = in.value(fr, instr.A)
			}
			return 0, v, true, err
		case ir.OpBr:
			if len(b.Succs) == 0 {
				return 0, 0, true, nil
			}
			return int64(b.Succs[0]), 0, false, nil
		case ir.OpCondBr:
			var c int64
			if c, err = in.value(fr, instr.A); err != nil {
				return 0, 0, false, err
			}
			if len(b.Succs) < 2 {
				return 0, 0, false, trapErr{"condbr without successors"}
			}
			if c != 0 {
				return int64(b.Succs[0]), 0, false, nil
			}
			return int64(b.Succs[1]), 0, false, nil
		case ir.OpSwitch:
			var c int64
			if c, err = in.value(fr, instr.A); err != nil {
				return 0, 0, false, err
			}
			for ci, val := range instr.Cases {
				if c == val && ci < len(b.Succs) {
					return int64(b.Succs[ci]), 0, false, nil
				}
			}
			if len(b.Succs) > len(instr.Cases) {
				return int64(b.Succs[len(instr.Cases)]), 0, false, nil
			}
			return 0, 0, true, nil
		default:
			err = trapErr{"unimplemented op " + instr.Op.String()}
		}
		if err != nil {
			return 0, 0, false, err
		}
	}
	// Fallthrough without explicit terminator.
	if len(b.Succs) > 0 {
		return int64(b.Succs[0]), 0, false, nil
	}
	return 0, 0, true, nil
}

func (in *Interp) binop(instr *ir.Instr, a, b int64) (int64, error) {
	if instr.Float {
		fa, fb := math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b))
		var fr float64
		switch instr.Op {
		case ir.OpAdd, ir.OpVecAdd:
			fr = fa + fb
		case ir.OpSub:
			fr = fa - fb
		case ir.OpMul, ir.OpVecMul:
			fr = fa * fb
		case ir.OpDiv:
			fr = fa / fb
		case ir.OpCmpEQ:
			return b2i(fa == fb), nil
		case ir.OpCmpNE:
			return b2i(fa != fb), nil
		case ir.OpCmpLT:
			return b2i(fa < fb), nil
		case ir.OpCmpLE:
			return b2i(fa <= fb), nil
		case ir.OpCmpGT:
			return b2i(fa > fb), nil
		case ir.OpCmpGE:
			return b2i(fa >= fb), nil
		default:
			return 0, trapErr{"float op " + instr.Op.String()}
		}
		return int64(math.Float64bits(fr)), nil
	}
	switch instr.Op {
	case ir.OpAdd, ir.OpVecAdd:
		return a + b, nil
	case ir.OpSub:
		return a - b, nil
	case ir.OpMul, ir.OpVecMul:
		return a * b, nil
	case ir.OpDiv:
		if b == 0 {
			return 0, trapErr{"division by zero"}
		}
		return a / b, nil
	case ir.OpRem:
		if b == 0 {
			return 0, trapErr{"remainder by zero"}
		}
		return a % b, nil
	case ir.OpShl:
		return a << uint(b&63), nil
	case ir.OpShr:
		return a >> uint(b&63), nil
	case ir.OpAnd:
		return a & b, nil
	case ir.OpOr:
		return a | b, nil
	case ir.OpXor:
		return a ^ b, nil
	case ir.OpCmpEQ:
		return b2i(a == b), nil
	case ir.OpCmpNE:
		return b2i(a != b), nil
	case ir.OpCmpLT:
		return b2i(a < b), nil
	case ir.OpCmpLE:
		return b2i(a <= b), nil
	case ir.OpCmpGT:
		return b2i(a > b), nil
	case ir.OpCmpGE:
		return b2i(a >= b), nil
	}
	return 0, trapErr{"binop " + instr.Op.String()}
}

// value resolves an operand to its runtime value.
func (in *Interp) value(fr *frame, v ir.Value) (int64, error) {
	switch v.Kind {
	case ir.VNone:
		return 0, nil
	case ir.VConst:
		return v.ID, nil
	case ir.VFConst:
		return v.ID, nil // already Float64bits
	case ir.VTemp:
		return fr.temps[v.ID], nil
	case ir.VParam:
		if int(v.ID) < len(fr.params) {
			return fr.params[v.ID], nil
		}
		return 0, nil
	case ir.VGlobal:
		return encodePtr(false, 0, v.ID, 0), nil
	case ir.VLocal:
		return encodePtr(true, fr.id, v.ID, 0), nil
	case ir.VFunc:
		return v.ID, nil
	}
	return 0, trapErr{"operand kind"}
}

// address computes &(base + offset) as a tagged pointer.
func (in *Interp) address(fr *frame, base, off ir.Value) (int64, error) {
	o, err := in.value(fr, off)
	if err != nil {
		return 0, err
	}
	switch base.Kind {
	case ir.VGlobal:
		return encodePtr(false, 0, base.ID, o), nil
	case ir.VLocal:
		return encodePtr(true, fr.id, base.ID, o), nil
	case ir.VParam, ir.VTemp:
		// Base already holds a pointer value.
		bv, err := in.value(fr, base)
		if err != nil {
			return 0, err
		}
		if isPtr(bv) {
			return bv + o, nil
		}
		return bv + o, nil
	}
	return 0, trapErr{"address base"}
}

// loadAddress resolves a Load/Store (base, offset) pair.
func (in *Interp) loadAddress(fr *frame, base, off ir.Value) (int64, error) {
	return in.address(fr, base, off)
}

// buffer resolves a pointer to its backing store.
func (in *Interp) buffer(p int64) ([]byte, int64, error) {
	if !isPtr(p) {
		return nil, 0, trapErr{fmt.Sprintf("wild pointer %#x", uint64(p))}
	}
	local, frameID, slot, off := decodePtr(p)
	if local {
		if int(frameID) >= len(in.frames) || !in.frames[frameID].alive {
			return nil, 0, trapErr{"dangling local pointer"}
		}
		fr := in.frames[frameID]
		if int(slot) >= len(fr.locals) {
			return nil, 0, trapErr{"bad local slot"}
		}
		return fr.locals[slot], off, nil
	}
	if int(slot) >= len(in.globals) {
		return nil, 0, trapErr{"bad global"}
	}
	return in.globals[slot], off, nil
}

// accessWidth normalizes an instruction width (0 means 8 bytes).
func accessWidth(w int8) int64 {
	if w == 1 || w == 2 || w == 4 {
		return int64(w)
	}
	return 8
}

func (in *Interp) read(p int64, width int8) (int64, error) {
	w := accessWidth(width)
	buf, off, err := in.buffer(p)
	if err != nil {
		return 0, err
	}
	if off < 0 || off+w > int64(len(buf)) {
		return 0, trapErr{"out-of-bounds read"}
	}
	var v int64
	for i := w - 1; i >= 0; i-- {
		v = v<<8 | int64(buf[off+i])
	}
	// Sign-extend sub-word loads (the integer model is signed).
	if w < 8 {
		shift := uint(64 - 8*w)
		v = v << shift >> shift
	}
	return v, nil
}

func (in *Interp) write(p, v int64, width int8) error {
	w := accessWidth(width)
	buf, off, err := in.buffer(p)
	if err != nil {
		return err
	}
	if off < 0 || off+w > int64(len(buf)) {
		return trapErr{"out-of-bounds write"}
	}
	for i := int64(0); i < w; i++ {
		buf[off+i] = byte(v >> (8 * i))
	}
	return nil
}

func (in *Interp) strlen(p int64) (int64, error) {
	buf, off, err := in.buffer(p)
	if err != nil {
		return 0, err
	}
	for i := off; i < int64(len(buf)); i++ {
		if buf[i] == 0 {
			return i - off, nil
		}
	}
	return int64(len(buf)) - off, nil
}

// dispatchCall runs a user function or a builtin.
func (in *Interp) dispatchCall(fr *frame, instr *ir.Instr) (int64, error) {
	var args []int64
	for _, a := range instr.Args {
		v, err := in.value(fr, a)
		if err != nil {
			return 0, err
		}
		args = append(args, v)
	}
	if callee := in.prog.FuncByName(instr.Callee); callee != nil {
		return in.call(callee, args)
	}
	return in.builtin(instr.Callee, args)
}

func (in *Interp) builtin(name string, args []int64) (int64, error) {
	argOr := func(i int, def int64) int64 {
		if i < len(args) {
			return args[i]
		}
		return def
	}
	switch name {
	case "abort":
		return 0, trapErr{"abort called"}
	case "exit":
		return 0, trapErr{fmt.Sprintf("exit(%d)", argOr(0, 0))}
	case "printf", "puts", "fprintf":
		in.output++
		return 1, nil
	case "putchar":
		in.output++
		return argOr(0, 0), nil
	case "abs", "labs":
		v := argOr(0, 0)
		if v < 0 {
			v = -v
		}
		return v, nil
	case "rand":
		return 42, nil // deterministic "random"
	case "srand":
		return 0, nil
	case "strlen":
		return in.strlen(argOr(0, 0))
	case "memset":
		p, c, n := argOr(0, 0), argOr(1, 0), argOr(2, 0)
		buf, off, err := in.buffer(p)
		if err != nil {
			return 0, err
		}
		for i := int64(0); i < n && off+i < int64(len(buf)); i++ {
			buf[off+i] = byte(c)
		}
		return p, nil
	case "memcpy", "strcpy":
		dst, src := argOr(0, 0), argOr(1, 0)
		n := argOr(2, 32)
		db, do, err := in.buffer(dst)
		if err != nil {
			return 0, err
		}
		sb, so, err := in.buffer(src)
		if err != nil {
			return 0, err
		}
		for i := int64(0); i < n && do+i < int64(len(db)) && so+i < int64(len(sb)); i++ {
			db[do+i] = sb[so+i]
		}
		return dst, nil
	case "sprintf", "snprintf":
		// Model: write a short marker and return its length.
		p := argOr(0, 0)
		buf, off, err := in.buffer(p)
		if err != nil {
			return 0, err
		}
		marker := "out"
		for i := 0; i < len(marker) && off+int64(i) < int64(len(buf)); i++ {
			buf[off+int64(i)] = marker[i]
		}
		if off+int64(len(marker)) < int64(len(buf)) {
			buf[off+int64(len(marker))] = 0
		}
		return int64(len(marker)), nil
	case "fabs":
		f := math.Float64frombits(uint64(argOr(0, 0)))
		return int64(math.Float64bits(math.Abs(f))), nil
	case "sqrt":
		f := math.Float64frombits(uint64(argOr(0, 0)))
		return int64(math.Float64bits(math.Sqrt(f))), nil
	case "pow":
		a := math.Float64frombits(uint64(argOr(0, 0)))
		b := math.Float64frombits(uint64(argOr(1, 0)))
		return int64(math.Float64bits(math.Pow(a, b))), nil
	case "malloc", "calloc":
		// No heap model: hand out a fresh global-like buffer.
		in.globals = append(in.globals, make([]byte, slotSize))
		return encodePtr(false, 0, int64(len(in.globals)-1), 0), nil
	case "free":
		return 0, nil
	default:
		// Unknown external: a benign constant.
		return 0, nil
	}
}

// RunCompiled compiles src at the given options and executes main,
// returning both the compile and execution results.
func (c *Compiler) RunCompiled(src string, opts Options) (Result, ExecResult) {
	res := c.Compile(src, opts)
	if !res.OK {
		return res, ExecResult{Status: ExecTrap, TrapMsg: "did not compile"}
	}
	// Re-lower to IR with the requested optimization level (the driver
	// does not retain the program).
	return res, c.executeFresh(src, opts)
}

func (c *Compiler) executeFresh(src string, opts Options) ExecResult {
	tu, err := parseAndCheckSrc(src)
	if err != nil {
		return ExecResult{Status: ExecTrap, TrapMsg: "front-end"}
	}
	prog := GenerateIR(tu, nopTrace(), Features{})
	if opts.OptLevel >= 1 {
		Optimize(prog, c.appendEnabledPasses(nil, opts), nopTrace(), Features{})
	}
	return NewInterp(prog).Execute("main", nil)
}
