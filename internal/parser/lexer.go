package parser

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkNumber
	tkString
	tkParam // @name
	tkPunct // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // idents lower-cased? no: original text; matching is case-insensitive
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front.
func lex(src string) ([]token, error) {
	// Presize for the densest common text, a bulk INSERT's VALUES list
	// ("(1, 2), " is about a token per two bytes): a 1 000-row INSERT then
	// lexes into one allocation instead of a chain of growing copies.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/2+2)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tkEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.pos++
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tkIdent, text: l.src[start:l.pos], pos: start})
		case c == '[':
			// Bracket-quoted identifier.
			end := strings.IndexByte(l.src[l.pos:], ']')
			if end < 0 {
				return nil, fmt.Errorf("parser: unterminated [identifier] at offset %d", start)
			}
			l.toks = append(l.toks, token{kind: tkIdent, text: l.src[l.pos+1 : l.pos+end], pos: start})
			l.pos += end + 1
		case c == '"':
			end := strings.IndexByte(l.src[l.pos+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf(`parser: unterminated "identifier" at offset %d`, start)
			}
			l.toks = append(l.toks, token{kind: tkIdent, text: l.src[l.pos+1 : l.pos+1+end], pos: start})
			l.pos += end + 2
		case c >= '0' && c <= '9':
			l.pos++
			seenDot := false
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if ch >= '0' && ch <= '9' {
					l.pos++
					continue
				}
				if ch == '.' && !seenDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
					seenDot = true
					l.pos++
					continue
				}
				break
			}
			l.toks = append(l.toks, token{kind: tkNumber, text: l.src[start:l.pos], pos: start})
		case c == '\'':
			s, n, err := lexString(l.src[l.pos:])
			if err != nil {
				return nil, fmt.Errorf("parser: %v at offset %d", err, start)
			}
			l.toks = append(l.toks, token{kind: tkString, text: s, pos: start})
			l.pos += n
		case c == '@':
			l.pos++
			ns := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == ns {
				return nil, fmt.Errorf("parser: bare @ at offset %d", start)
			}
			l.toks = append(l.toks, token{kind: tkParam, text: l.src[ns:l.pos], pos: start})
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			nl := strings.IndexByte(l.src[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += nl + 1
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("parser: unterminated comment at offset %d", start)
			}
			l.pos += end + 4
		default:
			// Multi-char operators first.
			rest := l.src[l.pos:]
			matched := ""
			for _, op := range []string{"<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ".", ";"} {
				if strings.HasPrefix(rest, op) {
					matched = op
					break
				}
			}
			if matched == "" {
				return nil, fmt.Errorf("parser: unexpected character %q at offset %d", c, start)
			}
			if matched == "!=" {
				matched = "<>"
			}
			l.toks = append(l.toks, token{kind: tkPunct, text: matched, pos: start})
			l.pos += len(matched)
		}
	}
}

// lexString reads a 'quoted' string with ” escaping, returning the value
// and the consumed byte count.
func lexString(s string) (string, int, error) {
	if s[0] != '\'' {
		return "", 0, fmt.Errorf("not a string")
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		if s[i] == '\'' {
			if i+1 < len(s) && s[i+1] == '\'' {
				b.WriteByte('\'')
				i += 2
				continue
			}
			return b.String(), i + 1, nil
		}
		b.WriteByte(s[i])
		i++
	}
	return "", 0, fmt.Errorf("unterminated string literal")
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '#' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}
