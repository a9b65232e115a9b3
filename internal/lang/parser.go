package lang

import (
	"strconv"
	"sync"
)

// Parser is a recursive-descent parser for LoopLang.
type Parser struct {
	toks []Token
	pos  int
}

// tokPool recycles Parse's token buffers. No AST node holds a Token (nodes
// keep Text substrings of the source and Pos values), so a buffer is free
// once Parse returns; it is cleared first so it does not pin the source.
var tokPool = sync.Pool{New: func() any { return new([]Token) }}

// Parse parses a whole source file.
func Parse(src string) (*File, error) {
	bp := tokPool.Get().(*[]Token)
	toks, err := NewLexer(src).appendAll((*bp)[:0])
	defer func() {
		clear(toks)
		*bp = toks[:0]
		tokPool.Put(bp)
	}()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	f := &File{}
	for p.cur().Kind != TokEOF {
		k, err := p.parseKernel()
		if err != nil {
			return nil, err
		}
		f.Kernels = append(f.Kernels, k)
	}
	if len(f.Kernels) == 0 {
		return nil, errf(p.cur().Pos, "no kernels in input")
	}
	return f, nil
}

// ParseKernel parses a source file expected to contain exactly one kernel.
func ParseKernel(src string) (*Kernel, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(f.Kernels) != 1 {
		return nil, errf(Pos{1, 1}, "expected exactly one kernel, found %d", len(f.Kernels))
	}
	return f.Kernels[0], nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	p.pos++
	return t, nil
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) parseKernel() (*Kernel, error) {
	start, err := p.expect(TokKernel)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	k := &Kernel{Name: name.Text, Pos: start.Pos, Attrs: map[string]string{}}
	// Attributes: ident=value pairs up to the opening brace.
	for p.cur().Kind == TokIdent {
		key := p.next().Text
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		val := p.cur()
		if val.Kind != TokIdent && val.Kind != TokNumber {
			return nil, errf(val.Pos, "expected attribute value, found %s", val.Kind)
		}
		p.pos++
		if _, dup := k.Attrs[key]; dup {
			return nil, errf(val.Pos, "duplicate attribute %q", key)
		}
		k.Attrs[key] = val.Text
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokParam, TokDouble, TokFloat, TokInt, TokLong:
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			k.Decls = append(k.Decls, d)
		case TokNoalias:
			p.next()
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			k.NoAlias = true
		case TokFor:
			loop, err := p.parseFor()
			if err != nil {
				return nil, err
			}
			if k.Loop != nil {
				return nil, errf(loop.Pos, "kernel %s has more than one loop", k.Name)
			}
			k.Loop = loop
		case TokRBrace:
			p.next()
			if k.Loop == nil {
				return nil, errf(k.Pos, "kernel %s has no loop", k.Name)
			}
			return k, nil
		default:
			return nil, errf(p.cur().Pos, "unexpected %s in kernel body", p.cur().Kind)
		}
	}
}

func (p *Parser) parseType() (Type, error) {
	t := p.next()
	switch t.Kind {
	case TokDouble:
		return TypeDouble, nil
	case TokFloat:
		return TypeFloat, nil
	case TokInt:
		return TypeInt, nil
	case TokLong:
		return TypeLong, nil
	}
	return 0, errf(t.Pos, "expected type, found %s", t.Kind)
}

func (p *Parser) parseDecl() (*Decl, error) {
	d := &Decl{Pos: p.cur().Pos}
	if p.accept(TokParam) {
		d.Param = true
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	d.Type = ty
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		dn := DeclName{Name: name.Text}
		if p.accept(TokLBracket) {
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			dn.IsArray = true
		}
		if dn.IsArray && d.Param {
			return nil, errf(name.Pos, "param declarations must be scalar")
		}
		d.Names = append(d.Names, dn)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFor() (*ForLoop, error) {
	start, err := p.expect(TokFor)
	if err != nil {
		return nil, err
	}
	iv, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	lo, err := p.expect(TokNumber)
	if err != nil {
		return nil, err
	}
	loVal, err := strconv.Atoi(lo.Text)
	if err != nil {
		return nil, errf(lo.Pos, "loop lower bound must be an integer: %v", err)
	}
	if _, err := p.expect(TokDotDot); err != nil {
		return nil, err
	}
	var hi Expr
	switch p.cur().Kind {
	case TokNumber:
		t := p.next()
		iv, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, errf(t.Pos, "loop upper bound must be an integer: %v", err)
		}
		hi = &NumLit{Pos: t.Pos, Text: t.Text, Value: float64(iv), IsInt: true, IntVal: iv}
	case TokIdent:
		t := p.next()
		hi = &Ident{Pos: t.Pos, Name: t.Text}
	default:
		return nil, errf(p.cur().Pos, "expected loop upper bound, found %s", p.cur().Kind)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ForLoop{Pos: start.Pos, IV: iv.Text, Lo: loVal, Hi: hi, Body: body}, nil
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.cur().Kind != TokRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.next() // consume }
	return stmts, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokFor:
		return p.parseFor()
	case TokIf:
		return p.parseIf()
	case TokCall:
		start := p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &CallStmt{Pos: start.Pos, Name: name.Text}, nil
	case TokIdent:
		return p.parseAssign()
	}
	return nil, errf(p.cur().Pos, "unexpected %s at start of statement", p.cur().Kind)
}

func (p *Parser) parseIf() (Stmt, error) {
	start := p.next() // if
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if p.accept(TokBreak) {
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakIfStmt{Pos: start.Pos, Cond: cond}, nil
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept(TokElse) {
		els, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Pos: start.Pos, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseAssign() (Stmt, error) {
	target, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch target.(type) {
	case *Ident, *IndexExpr:
	default:
		return nil, errf(target.ExprPos(), "assignment target must be a scalar or array element")
	}
	eq, err := p.expect(TokAssign)
	if err != nil {
		return nil, err
	}
	value, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &AssignStmt{Pos: eq.Pos, Target: target, Value: value}, nil
}

// parseExpr parses comparisons (lowest precedence).
func (p *Parser) parseExpr() (Expr, error) {
	x, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	var op BinOp
	switch p.cur().Kind {
	case TokEq:
		op = BinEq
	case TokNeq:
		op = BinNeq
	case TokLt:
		op = BinLt
	case TokLe:
		op = BinLe
	case TokGt:
		op = BinGt
	case TokGe:
		op = BinGe
	default:
		return x, nil
	}
	t := p.next()
	y, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Pos: t.Pos, Op: op, X: x, Y: y}, nil
}

func (p *Parser) parseAddSub() (Expr, error) {
	x, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TokPlus:
			op = BinAdd
		case TokMinus:
			op = BinSub
		default:
			return x, nil
		}
		t := p.next()
		y, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: t.Pos, Op: op, X: x, Y: y}
	}
}

func (p *Parser) parseMulDiv() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TokStar:
			op = BinMul
		case TokSlash:
			op = BinDiv
		default:
			return x, nil
		}
		t := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: t.Pos, Op: op, X: x, Y: y}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.cur().Kind == TokMinus {
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad number %q: %v", t.Text, err)
		}
		n := &NumLit{Pos: t.Pos, Text: t.Text, Value: v}
		if iv, err := strconv.Atoi(t.Text); err == nil {
			n.IsInt = true
			n.IntVal = iv
		}
		return n, nil
	case TokIdent:
		p.next()
		if p.accept(TokLBracket) {
			idx, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Pos: t.Pos, Array: t.Text, Index: idx}, nil
		}
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	case TokLParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, errf(t.Pos, "unexpected %s in expression", t.Kind)
}
