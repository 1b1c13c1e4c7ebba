package hwdb

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexical tokens of the CQL variant.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokMAC
	tokIP
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes a CQL statement. MAC (aa:bb:cc:dd:ee:ff) and dotted-quad
// IP literals are recognized at the lexical level so WHERE clauses read
// naturally: WHERE mac = 00:11:22:33:44:55 AND saddr = 192.168.1.10.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// About one token per three bytes of a statement: one allocation for
	// the usual query, and append takes over for a denser one.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+2)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case isDigit(c):
			if err := l.lexNumberOrAddr(); err != nil {
				return nil, err
			}
		case isHexByteStart(l.src[l.pos:]):
			// Only reached for hex MAC forms starting with a letter (e.g.
			// aa:bb:...); digit-led MACs are handled by lexNumberOrAddr.
			if err := l.lexMAC(); err != nil {
				return nil, err
			}
		case isIdentStart(c):
			l.lexIdent()
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool   { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isIdentStart(c byte) bool { return c == '_' || c == '*' || unicode.IsLetter(rune(c)) }
func isIdentRune(c byte) bool  { return c == '_' || c == '.' || isDigit(c) || unicode.IsLetter(rune(c)) }

// isHexByteStart reports whether s begins like a MAC literal: two hex
// digits followed by a colon.
func isHexByteStart(s string) bool {
	return len(s) >= 3 && isHexDigit(s[0]) && isHexDigit(s[1]) && s[2] == ':'
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("hwdb: unterminated string at %d", start)
}

// lexNumberOrAddr handles integers, reals, dotted-quad IPs and digit-led
// MAC literals.
func (l *lexer) lexNumberOrAddr() error {
	start := l.pos
	if isHexByteStart(l.src[l.pos:]) {
		return l.lexMAC()
	}
	dots := 0
	hasExp := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
		case c == '.':
			dots++
		case c == 'e' || c == 'E':
			hasExp = true
		case (c == '+' || c == '-') && hasExp && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'):
		default:
			goto done
		}
		l.pos++
	}
done:
	text := l.src[start:l.pos]
	if dots == 3 {
		l.emit(token{kind: tokIP, text: text, pos: start})
		return nil
	}
	if dots > 1 {
		return fmt.Errorf("hwdb: bad numeric literal %q at %d", text, start)
	}
	l.emit(token{kind: tokNumber, text: text, pos: start})
	return nil
}

func (l *lexer) lexMAC() error {
	start := l.pos
	// Expect 6 hex bytes separated by colons.
	for i := 0; i < 6; i++ {
		if l.pos+1 >= len(l.src) || !isHexDigit(l.src[l.pos]) || !isHexDigit(l.src[l.pos+1]) {
			return fmt.Errorf("hwdb: bad MAC literal at %d", start)
		}
		l.pos += 2
		if i < 5 {
			if l.pos >= len(l.src) || l.src[l.pos] != ':' {
				return fmt.Errorf("hwdb: bad MAC literal at %d", start)
			}
			l.pos++
		}
	}
	l.emit(token{kind: tokMAC, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	if l.src[l.pos] == '*' {
		l.pos++
		l.emit(token{kind: tokIdent, text: "*", pos: start})
		return
	}
	for l.pos < len(l.src) && isIdentRune(l.src[l.pos]) {
		l.pos++
	}
	l.emit(token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexSymbol() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		l.pos += 2
		l.emit(token{kind: tokSymbol, text: two, pos: start})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '[', ']', '*', '+', '-', '/', '@':
		l.pos++
		l.emit(token{kind: tokSymbol, text: l.src[start:l.pos], pos: start})
		return nil
	}
	return fmt.Errorf("hwdb: unexpected character %q at %d", c, start)
}
