package lang

import (
	"fmt"
	"slices"
	"strconv"

	"metaopt/internal/ir"
)

// Lower translates a parsed kernel into the loop IR. Control flow inside the
// body is if-converted (predicated operations plus select merges), matching
// how an Itanium compiler presents an innermost loop to its scheduler.
// Scalars assigned in the body become loop-carried values: a read before the
// iteration's definition refers to the previous iteration's final value.
func Lower(k *Kernel) (*ir.Loop, error) {
	lw := &lowerer{
		kernel:  k,
		loop:    ir.NewLoop(k.Name),
		scalars: map[string]*scalarInfo{},
		arrays:  map[string]arrayInfo{},
	}
	if err := lw.applyAttrs(); err != nil {
		return nil, err
	}
	if err := lw.declare(); err != nil {
		return nil, err
	}
	if err := lw.lowerLoop(); err != nil {
		return nil, err
	}
	if err := lw.loop.Validate(); err != nil {
		return nil, fmt.Errorf("lang: internal error lowering %s: %w", k.Name, err)
	}
	return lw.loop, nil
}

// LowerFile parses src and lowers every kernel in it.
func LowerFile(src string) ([]*ir.Loop, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	loops := make([]*ir.Loop, 0, len(f.Kernels))
	for _, k := range f.Kernels {
		l, err := Lower(k)
		if err != nil {
			return nil, err
		}
		loops = append(loops, l)
	}
	return loops, nil
}

type scalarInfo struct {
	typ         Type
	param       bool
	assigned    bool   // assigned somewhere in the loop body
	def         *ir.Op // current definition this iteration (nil if none yet)
	paramOp     *ir.Op // lazily created OpParam for live-in reads
	placeholder *ir.Op // stand-in for "previous iteration's final value"
}

type arrayInfo struct {
	elem ir.ElemKind
}

type lowerer struct {
	kernel  *Kernel
	loop    *ir.Loop
	scalars map[string]*scalarInfo
	arrays  map[string]arrayInfo
	consts  map[string]*ir.Op

	nextPred int
	curPred  int    // active predicate id; 0 = unpredicated
	predCmp  *ir.Op // compare op guarding the current if body
	innerIV  string // induction variable of the innermost loop

	// loadCache maps memory locations to an earlier unpredicated load of
	// the same location, for redundant load elimination. Stores and calls
	// invalidate it.
	loadCache map[memLoc]*ir.Op
}

// memLoc identifies an affine memory location; as a struct map key it
// costs no formatting per load.
type memLoc struct {
	array          string
	stride, offset int
}

// invalidateLoads drops cached loads a store to array could alias. Calls
// and may-alias stores clobber everything.
func (lw *lowerer) invalidateLoads(array string) {
	if lw.loadCache == nil {
		return
	}
	if array == "" || !lw.loop.NoAlias {
		lw.loadCache = map[memLoc]*ir.Op{}
		return
	}
	for k := range lw.loadCache {
		if k.array == array {
			delete(lw.loadCache, k)
		}
	}
}

func (lw *lowerer) applyAttrs() error {
	l := lw.loop
	k := lw.kernel
	l.NoAlias = k.NoAlias
	// Check attributes in sorted order, the order the printer writes them,
	// so a kernel with several bad ones always gets the same error.
	var buf [4]string
	keys := buf[:0]
	for key := range k.Attrs {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		val := k.Attrs[key]
		switch key {
		case "lang":
			switch val {
			case "c":
				l.Lang = ir.LangC
			case "fortran":
				l.Lang = ir.LangFortran
				l.NoAlias = true
			case "f90":
				l.Lang = ir.LangFortran90
				l.NoAlias = true
			default:
				return errf(k.Pos, "kernel %s: unknown lang %q", k.Name, val)
			}
		case "nest":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return errf(k.Pos, "kernel %s: bad nest %q", k.Name, val)
			}
			l.NestLevel = n
		case "entries":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return errf(k.Pos, "kernel %s: bad entries %q", k.Name, val)
			}
			l.Entries = n
		case "runtime_trip":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return errf(k.Pos, "kernel %s: bad runtime_trip %q", k.Name, val)
			}
			l.RuntimeTrip = n
		default:
			return errf(k.Pos, "kernel %s: unknown attribute %q", k.Name, key)
		}
	}
	return nil
}

func (lw *lowerer) declare() error {
	for _, d := range lw.kernel.Decls {
		for _, dn := range d.Names {
			if _, dup := lw.scalars[dn.Name]; dup {
				return errf(d.Pos, "redeclaration of %q", dn.Name)
			}
			if _, dup := lw.arrays[dn.Name]; dup {
				return errf(d.Pos, "redeclaration of %q", dn.Name)
			}
			if dn.IsArray {
				lw.arrays[dn.Name] = arrayInfo{elem: ir.ElemKind{Float: d.Type.IsFloat(), Bytes: d.Type.Bytes()}}
			} else {
				lw.scalars[dn.Name] = &scalarInfo{typ: d.Type, param: d.Param}
			}
		}
	}
	return nil
}

func (lw *lowerer) lowerLoop() error {
	fl := lw.kernel.Loop
	l := lw.loop

	// Descend through perfect nesting: an outer loop whose whole body is
	// another loop multiplies the inner loop's entry count and deepens its
	// nest level. Outer induction variables are loop-invariant within the
	// innermost body, so they become readable parameters.
	depth := 0
	for {
		inner, ok := singleFor(fl.Body)
		if !ok {
			break
		}
		if err := lw.checkIVFresh(fl); err != nil {
			return err
		}
		outerTrip := 50 // assumed entry multiplier for a symbolic outer bound
		if hi, isLit := fl.Hi.(*NumLit); isLit {
			if !hi.IsInt || hi.IntVal-fl.Lo <= 0 {
				return errf(hi.Pos, "outer loop bound must exceed its lower bound")
			}
			outerTrip = hi.IntVal - fl.Lo
		}
		l.Entries *= int64(outerTrip)
		lw.scalars[fl.IV] = &scalarInfo{typ: TypeLong, param: true}
		depth++
		fl = inner
	}
	// A loop mixed among other statements is not a perfect nest.
	for _, s := range fl.Body {
		if _, isFor := s.(*ForLoop); isFor {
			return errf(fl.Pos, "a nested loop must be the only statement of its parent loop")
		}
	}
	if depth > 0 && depth+1 > l.NestLevel {
		l.NestLevel = depth + 1
	}

	if err := lw.checkIVFresh(fl); err != nil {
		return err
	}
	lw.innerIV = fl.IV
	// The induction variable behaves like an integer scalar assigned at the
	// end of every iteration by the increment op.
	lw.scalars[fl.IV] = &scalarInfo{typ: TypeLong, assigned: true}

	switch hi := fl.Hi.(type) {
	case *NumLit:
		if !hi.IsInt {
			return errf(hi.Pos, "loop bound must be an integer")
		}
		trip := hi.IntVal - fl.Lo
		if trip <= 0 {
			return errf(hi.Pos, "loop executes %d iterations", trip)
		}
		l.TripCount = trip
		if l.RuntimeTrip <= 1 {
			l.RuntimeTrip = trip
		}
	case *Ident:
		l.TripCount = -1
		if l.RuntimeTrip <= 1 {
			l.RuntimeTrip = 1000
		}
	default:
		return errf(fl.Pos, "bad loop bound")
	}

	// Record which scalars are assigned in the body so reads know whether
	// they are live-in parameters or loop-carried values.
	markAssigned(fl.Body, lw.scalars)

	for _, s := range fl.Body {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}

	// Induction variable update (iv = iv + 1), trip test, back edge.
	ivAdd := l.NewOp(ir.OpAdd, ir.Use(lw.constOp("1")))
	ivAdd.Name = fl.IV
	ivAdd.Args = append(ivAdd.Args, ir.Carried(ivAdd, 1))
	ivAdd.FP = false
	lw.defineScalar(fl.IV, ivAdd)

	var bound ir.ArgRef
	if id, ok := fl.Hi.(*Ident); ok {
		bound = ir.Use(lw.paramFor(id.Name, TypeLong))
	} else {
		bound = ir.Use(lw.constOp(strconv.Itoa(fl.Hi.(*NumLit).IntVal)))
	}
	cmp := l.NewOp(ir.OpCmp, ir.Use(ivAdd), bound)
	cmp.FP = false
	l.NewOp(ir.OpBr, ir.Use(cmp))

	return lw.resolveCarried()
}

// markAssigned records every scalar assigned anywhere in the statement list.
func markAssigned(stmts []Stmt, scalars map[string]*scalarInfo) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignStmt:
			if id, ok := st.Target.(*Ident); ok {
				if info, ok := scalars[id.Name]; ok {
					info.assigned = true
				}
			}
		case *IfStmt:
			markAssigned(st.Then, scalars)
			markAssigned(st.Else, scalars)
		}
	}
}

// singleFor reports whether the statement list is exactly one nested loop.
func singleFor(stmts []Stmt) (*ForLoop, bool) {
	if len(stmts) != 1 {
		return nil, false
	}
	fl, ok := stmts[0].(*ForLoop)
	return fl, ok
}

// checkIVFresh rejects induction variables that shadow declared names.
func (lw *lowerer) checkIVFresh(fl *ForLoop) error {
	if _, clash := lw.scalars[fl.IV]; clash {
		return errf(fl.Pos, "induction variable %q shadows another name", fl.IV)
	}
	if _, clash := lw.arrays[fl.IV]; clash {
		return errf(fl.Pos, "induction variable %q shadows a declared array", fl.IV)
	}
	return nil
}

func (lw *lowerer) lowerStmt(s Stmt) error {
	switch st := s.(type) {
	case *AssignStmt:
		return lw.lowerAssign(st)
	case *IfStmt:
		return lw.lowerIf(st)
	case *BreakIfStmt:
		cond, err := lw.lowerCond(st.Cond)
		if err != nil {
			return err
		}
		lw.loop.NewOp(ir.OpCondBr, ir.Use(cond))
		lw.loop.EarlyExit = true
		return nil
	case *CallStmt:
		call := lw.loop.NewOp(ir.OpCall)
		call.Name = st.Name
		lw.markPred(call)
		lw.invalidateLoads("")
		return nil
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

func (lw *lowerer) lowerAssign(st *AssignStmt) error {
	val, err := lw.lowerExpr(st.Value)
	if err != nil {
		return err
	}
	switch target := st.Target.(type) {
	case *Ident:
		info, ok := lw.scalars[target.Name]
		if !ok {
			return errf(target.Pos, "assignment to undeclared scalar %q", target.Name)
		}
		if info.param {
			return errf(target.Pos, "assignment to param %q", target.Name)
		}
		val = lw.coerce(val, info.typ.IsFloat())
		if lw.curPred != 0 {
			// Conditional assignment: select-merge with the incoming value.
			old, err := lw.readScalar(target.Name, target.Pos)
			if err != nil {
				return err
			}
			sel := lw.loop.NewOp(ir.OpSel, ir.Use(lw.predCmp), val, old)
			sel.Name = target.Name
			lw.markPred(sel)
			sel.FP = info.typ.IsFloat()
			lw.defineScalar(target.Name, sel)
			return nil
		}
		lw.defineScalar(target.Name, lw.materialize(val, info.typ.IsFloat()))
		return nil
	case *IndexExpr:
		arr, ok := lw.arrays[target.Array]
		if !ok {
			return errf(target.Pos, "store to undeclared array %q", target.Array)
		}
		mem, deps, err := lw.lowerIndex(target)
		if err != nil {
			return err
		}
		val = lw.coerce(val, arr.elem.Float)
		store := lw.loop.NewOp(ir.OpStore, append(deps, val)...)
		store.Mem = mem
		lw.markPred(store)
		lw.invalidateLoads(target.Array)
		return nil
	}
	return errf(st.Pos, "bad assignment target")
}

func (lw *lowerer) lowerIf(st *IfStmt) error {
	if lw.curPred != 0 {
		return errf(st.Pos, "nested if statements are not supported")
	}
	cond, err := lw.lowerCond(st.Cond)
	if err != nil {
		return err
	}
	lw.nextPred++
	lw.curPred = lw.nextPred
	lw.predCmp = cond
	defer func() { lw.curPred = 0; lw.predCmp = nil }()
	for _, s := range st.Then {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}
	for _, s := range st.Else {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

// lowerCond lowers a condition to a compare op producing a predicate.
func (lw *lowerer) lowerCond(e Expr) (*ir.Op, error) {
	be, ok := e.(*BinaryExpr)
	if !ok || !be.Op.IsCompare() {
		return nil, errf(e.ExprPos(), "condition must be a comparison")
	}
	x, err := lw.lowerExpr(be.X)
	if err != nil {
		return nil, err
	}
	y, err := lw.lowerExpr(be.Y)
	if err != nil {
		return nil, err
	}
	code := ir.OpCmp
	if lw.refIsFloat(x) || lw.refIsFloat(y) {
		code = ir.OpFCmp
		x = lw.coerce(x, true)
		y = lw.coerce(y, true)
	}
	cmp := lw.loop.NewOp(code, x, y)
	lw.markPred(cmp)
	cmp.FP = false
	return cmp, nil
}

func (lw *lowerer) markPred(op *ir.Op) {
	if lw.curPred == 0 || op == lw.predCmp {
		return
	}
	op.Predicated = true
	op.PredID = lw.curPred
	// The predicate is a real data dependence: the op cannot issue before
	// the guarding compare. Prepend it so positional argument conventions
	// (e.g. "a store's value is its last argument") keep holding.
	for _, a := range op.Args {
		if a.Op == lw.predCmp && a.Dist == 0 {
			return
		}
	}
	op.Args = append([]ir.ArgRef{ir.Use(lw.predCmp)}, op.Args...)
}

// lowerExpr lowers a value expression and returns a reference to its value.
// The reference may be loop-carried (Dist > 0) for recurrence reads.
func (lw *lowerer) lowerExpr(e Expr) (ir.ArgRef, error) {
	switch ex := e.(type) {
	case *NumLit:
		return ir.Use(lw.constOp(ex.Text)), nil
	case *Ident:
		ref, err := lw.readScalar(ex.Name, ex.Pos)
		if err != nil {
			return ir.ArgRef{}, err
		}
		return ref, nil
	case *IndexExpr:
		arr, ok := lw.arrays[ex.Array]
		if !ok {
			return ir.ArgRef{}, errf(ex.Pos, "use of undeclared array %q", ex.Array)
		}
		mem, deps, err := lw.lowerIndex(ex)
		if err != nil {
			return ir.ArgRef{}, err
		}
		// Redundant load elimination: reuse an earlier load of the same
		// location when no intervening store or call could have changed it.
		loc := memLoc{mem.Array, mem.Stride, mem.Offset}
		if !mem.Indirect {
			if prev, ok := lw.loadCache[loc]; ok {
				return ir.Use(prev), nil
			}
		}
		ld := lw.loop.NewOp(ir.OpLoad, deps...)
		ld.Mem = mem
		lw.markPred(ld)
		ld.FP = arr.elem.Float
		if !mem.Indirect && lw.curPred == 0 {
			if lw.loadCache == nil {
				lw.loadCache = map[memLoc]*ir.Op{}
			}
			lw.loadCache[loc] = ld
		}
		return ir.Use(ld), nil
	case *UnaryExpr:
		x, err := lw.lowerExpr(ex.X)
		if err != nil {
			return ir.ArgRef{}, err
		}
		code := ir.OpSub
		if lw.refIsFloat(x) {
			code = ir.OpFSub
		}
		neg := lw.loop.NewOp(code, ir.Use(lw.constOp("0")), x)
		lw.markPred(neg)
		neg.FP = lw.refIsFloat(x)
		return ir.Use(neg), nil
	case *BinaryExpr:
		if ex.Op.IsCompare() {
			return ir.ArgRef{}, errf(ex.Pos, "comparison outside condition context")
		}
		return lw.lowerBinary(ex)
	}
	return ir.ArgRef{}, errf(e.ExprPos(), "unsupported expression")
}

func (lw *lowerer) lowerBinary(ex *BinaryExpr) (ir.ArgRef, error) {
	x, err := lw.lowerExpr(ex.X)
	if err != nil {
		return ir.ArgRef{}, err
	}
	y, err := lw.lowerExpr(ex.Y)
	if err != nil {
		return ir.ArgRef{}, err
	}
	isF := lw.refIsFloat(x) || lw.refIsFloat(y)
	if isF {
		x = lw.coerce(x, true)
		y = lw.coerce(y, true)
	}
	var code ir.Opcode
	switch ex.Op {
	case BinAdd:
		code = ir.OpAdd
		if isF {
			code = ir.OpFAdd
		}
	case BinSub:
		code = ir.OpSub
		if isF {
			code = ir.OpFSub
		}
	case BinMul:
		code = ir.OpMul
		if isF {
			code = ir.OpFMul
		}
	case BinDiv:
		code = ir.OpDiv
		if isF {
			code = ir.OpFDiv
		}
	default:
		return ir.ArgRef{}, errf(ex.Pos, "bad binary operator")
	}

	// Fuse a*b+c (either order) into an FMA when the multiply has no other
	// uses, as the Itanium back end would.
	if code == ir.OpFAdd {
		if fma := lw.tryFuseFMA(x, y); fma != nil {
			return ir.Use(fma), nil
		}
	}

	op := lw.loop.NewOp(code, x, y)
	lw.markPred(op)
	op.FP = isF
	return ir.Use(op), nil
}

// tryFuseFMA rewrites fadd(fmul(a,b), c) as fma(a,b,c). The multiply must be
// an anonymous expression temporary (never bound to a scalar), which
// guarantees it has exactly one use; it is moved to the end of the body so
// the fused op follows all of its inputs in program order.
func (lw *lowerer) tryFuseFMA(x, y ir.ArgRef) *ir.Op {
	try := func(mul, addend ir.ArgRef) *ir.Op {
		if mul.Dist != 0 || mul.Op.Code != ir.OpFMul || mul.Op.Name != "" {
			return nil
		}
		if mul.Op.Predicated != (lw.curPred != 0) {
			return nil
		}
		body := lw.loop.Body
		pos := -1
		for i, op := range body {
			if op == mul.Op {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil
		}
		copy(body[pos:], body[pos+1:])
		body[len(body)-1] = mul.Op
		mul.Op.Code = ir.OpFMA
		mul.Op.Args = append(mul.Op.Args, addend)
		return mul.Op
	}
	if op := try(x, y); op != nil {
		return op
	}
	return try(y, x)
}

// lowerIndex turns an IndexExpr into a MemRef plus any address dependences
// (for indirect accesses, the load producing the index value).
func (lw *lowerer) lowerIndex(ex *IndexExpr) (*ir.MemRef, []ir.ArgRef, error) {
	arr := lw.arrays[ex.Array]
	iv := lw.innerIV
	if coef, off, ok := affine(ex.Index, iv); ok {
		return &ir.MemRef{Array: ex.Array, Stride: coef, Offset: off, Elem: arr.elem}, nil, nil
	}
	if inner, ok := ex.Index.(*IndexExpr); ok {
		innerRef, err := lw.lowerExpr(inner)
		if err != nil {
			return nil, nil, err
		}
		mem := &ir.MemRef{Array: ex.Array, Indirect: true, Elem: arr.elem}
		if innerRef.Op.Mem != nil {
			mem.Stride = innerRef.Op.Mem.Stride
			mem.Offset = innerRef.Op.Mem.Offset
		}
		return mem, []ir.ArgRef{innerRef}, nil
	}
	return nil, nil, errf(ex.Pos, "array index must be affine in %q or an indirect access", iv)
}

// affine matches c*iv + k (in any association) and returns (c, k).
func affine(e Expr, iv string) (coef, off int, ok bool) {
	switch ex := e.(type) {
	case *NumLit:
		if ex.IsInt {
			return 0, ex.IntVal, true
		}
	case *Ident:
		if ex.Name == iv {
			return 1, 0, true
		}
	case *UnaryExpr:
		if c, o, ok := affine(ex.X, iv); ok {
			return -c, -o, true
		}
	case *BinaryExpr:
		xc, xo, xok := affine(ex.X, iv)
		yc, yo, yok := affine(ex.Y, iv)
		if !xok || !yok {
			return 0, 0, false
		}
		switch ex.Op {
		case BinAdd:
			return xc + yc, xo + yo, true
		case BinSub:
			return xc - yc, xo - yo, true
		case BinMul:
			if xc == 0 {
				return xo * yc, xo * yo, true
			}
			if yc == 0 {
				return yo * xc, yo * xo, true
			}
		}
	}
	return 0, 0, false
}

// readScalar returns a reference to the current value of a scalar. Reads of
// loop-carried scalars before this iteration's definition point at a
// placeholder that resolveCarried patches to the final definition.
func (lw *lowerer) readScalar(name string, pos Pos) (ir.ArgRef, error) {
	info, ok := lw.scalars[name]
	if !ok {
		return ir.ArgRef{}, errf(pos, "use of undeclared scalar %q", name)
	}
	if info.def != nil {
		return ir.Use(info.def), nil
	}
	if !info.assigned {
		return ir.Use(lw.paramFor(name, info.typ)), nil
	}
	if info.placeholder == nil {
		ph := &ir.Op{ID: -1, Code: ir.OpParam, Name: name + ".carried"}
		info.placeholder = ph
		ph.FP = info.typ.IsFloat()
	}
	return ir.Carried(info.placeholder, 1), nil
}

func (lw *lowerer) defineScalar(name string, def *ir.Op) {
	info := lw.scalars[name]
	info.def = def
	if def.Name == "" {
		def.Name = name
	}
}

// resolveCarried rewrites placeholder references with the final definition
// of each carried scalar.
func (lw *lowerer) resolveCarried() error {
	for name, info := range lw.scalars {
		if info.placeholder == nil {
			continue
		}
		if info.def == nil {
			return fmt.Errorf("lang: scalar %q read as carried but never defined", name)
		}
		for _, op := range lw.loop.Body {
			for i := range op.Args {
				if op.Args[i].Op == info.placeholder {
					op.Args[i].Op = info.def
				}
			}
		}
	}
	return nil
}

func (lw *lowerer) paramFor(name string, typ Type) *ir.Op {
	info, ok := lw.scalars[name]
	if !ok {
		info = &scalarInfo{typ: typ, param: true}
		lw.scalars[name] = info
	}
	if info.paramOp == nil {
		info.paramOp = lw.loop.NewParam(name)
		info.paramOp.FP = info.typ.IsFloat()
	}
	return info.paramOp
}

func (lw *lowerer) constOp(text string) *ir.Op {
	if lw.consts == nil {
		lw.consts = map[string]*ir.Op{}
	}
	if c, ok := lw.consts[text]; ok {
		return c
	}
	c := lw.loop.NewConst(text)
	lw.consts[text] = c
	return c
}

// refIsFloat reports whether a reference carries a floating-point value.
// Constants are typeless: they adopt the type of their context.
func (lw *lowerer) refIsFloat(ref ir.ArgRef) bool {
	if ref.Op.Code == ir.OpConst {
		return false
	}
	return ref.Op.FP
}

// coerce inserts an int<->float conversion when needed. Constants convert
// for free: they are materialized in the right register file.
func (lw *lowerer) coerce(ref ir.ArgRef, wantFloat bool) ir.ArgRef {
	if ref.Op.Code == ir.OpConst || lw.refIsFloat(ref) == wantFloat {
		return ref
	}
	conv := lw.loop.NewOp(ir.OpConv, ref)
	lw.markPred(conv)
	conv.FP = wantFloat
	return ir.Use(conv)
}

// materialize turns a (possibly carried) reference into a concrete op that
// can serve as a scalar definition. Carried references need a register copy
// (`s = t` where t is a recurrence value from the previous iteration).
func (lw *lowerer) materialize(ref ir.ArgRef, isFloat bool) *ir.Op {
	if ref.Dist == 0 {
		return ref.Op
	}
	code := ir.OpAdd
	if isFloat {
		code = ir.OpFAdd
	}
	cp := lw.loop.NewOp(code, ir.Use(lw.constOp("0")), ref)
	lw.markPred(cp)
	cp.FP = isFloat
	return cp
}
