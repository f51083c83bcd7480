package txn

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// JSON format. The gateway's record bodies are the JSON of Txn and its
// nested types, written and read here by hand rather than by
// encoding/json's reflection. The output is byte for byte what
// encoding/json writes from the struct tags: fields in declaration
// order, omitempty as tagged (the zero CompletedAt is still written),
// times in RFC 3339 with nanoseconds, HTML-safe string escapes, and
// invalid UTF-8 written as U+FFFD. The decoder makes one pass over its
// input and accepts exactly what encoding/json accepts: keys in any
// order, matched exactly and then case-folded, unknown keys skipped,
// null leaving a field as it was (and a slice nil), and nothing but
// whitespace after the value. Like encoding/json, decoding into a
// non-zero record merges into it.
//
// A page of records (the GET /v1/txns body) is {"txns":[...]} with an
// optional "nextCursor"; AppendPageJSON and UnmarshalPageJSON carry it.

// maxJSONDepth is encoding/json's nesting limit: a document with more
// than this many open objects and arrays is rejected.
const maxJSONDepth = 10000

// jsonSafe lists the ASCII bytes written into a JSON string as they
// are: encoding/json's HTML-safe set (no quote, backslash, control
// character, '<', '>' or '&').
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// MarshalJSON implements json.Marshaler with AppendJSON.
func (t Txn) MarshalJSON() ([]byte, error) { return t.AppendJSON(nil) }

// AppendJSON appends the record's JSON to b. It fails only on a time
// encoding/json cannot write either (a year outside [0,9999]).
func (t *Txn) AppendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"id":`...)
	b = appendJSONString(b, t.ID)
	b = append(b, `,"proc":`...)
	b = appendJSONString(b, t.Proc)
	if len(t.Args) > 0 {
		b = append(b, `,"args":`...)
		b = appendJSONStrings(b, t.Args)
	}
	b = append(b, `,"state":`...)
	b = appendJSONString(b, string(t.State))
	if len(t.Log) > 0 {
		b = append(b, `,"log":[`...)
		for i := range t.Log {
			if i > 0 {
				b = append(b, ',')
			}
			b = t.Log[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	if t.UndoneThrough != 0 {
		b = append(b, `,"undoneThrough":`...)
		b = strconv.AppendInt(b, int64(t.UndoneThrough), 10)
	}
	if t.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, t.Error)
	}
	if t.Code != "" {
		b = append(b, `,"code":`...)
		b = appendJSONString(b, t.Code)
	}
	b = append(b, `,"submittedAt":`...)
	if b, err = appendJSONTime(b, t.SubmittedAt); err != nil {
		return nil, fmt.Errorf("txn %s: submittedAt: %w", t.ID, err)
	}
	b = append(b, `,"completedAt":`...)
	if b, err = appendJSONTime(b, t.CompletedAt); err != nil {
		return nil, fmt.Errorf("txn %s: completedAt: %w", t.ID, err)
	}
	if len(t.History) > 0 {
		b = append(b, `,"history":[`...)
		for i, s := range t.History {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"state":`...)
			b = appendJSONString(b, string(s.State))
			b = append(b, `,"at":`...)
			if b, err = appendJSONTime(b, s.At); err != nil {
				return nil, fmt.Errorf("txn %s: history: %w", t.ID, err)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if t.Signal != "" {
		b = append(b, `,"signal":`...)
		b = appendJSONString(b, string(t.Signal))
	}
	if t.Parent != "" {
		b = append(b, `,"parent":`...)
		b = appendJSONString(b, t.Parent)
	}
	if len(t.Participants) > 0 {
		b = append(b, `,"participants":[`...)
		for i, p := range t.Participants {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	if len(t.Children) > 0 {
		b = append(b, `,"children":[`...)
		for i := range t.Children {
			if i > 0 {
				b = append(b, ',')
			}
			b = t.Children[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	if t.Decision != "" {
		b = append(b, `,"decision":`...)
		b = appendJSONString(b, t.Decision)
	}
	if t.DecisionVia != "" {
		b = append(b, `,"decisionVia":`...)
		b = appendJSONString(b, t.DecisionVia)
	}
	if t.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(t.Epoch), 10)
	}
	return append(b, '}'), nil
}

func (r *LogRecord) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"path":`...)
	b = appendJSONString(b, r.Path)
	b = append(b, `,"action":`...)
	b = appendJSONString(b, r.Action)
	if len(r.Args) > 0 {
		b = append(b, `,"args":`...)
		b = appendJSONStrings(b, r.Args)
	}
	if r.Undo != "" {
		b = append(b, `,"undo":`...)
		b = appendJSONString(b, r.Undo)
	}
	if len(r.UndoArgs) > 0 {
		b = append(b, `,"undoArgs":`...)
		b = appendJSONStrings(b, r.UndoArgs)
	}
	if r.UndoPath != "" {
		b = append(b, `,"undoPath":`...)
		b = appendJSONString(b, r.UndoPath)
	}
	if r.Foreign {
		b = append(b, `,"foreign":true`...)
	}
	return append(b, '}')
}

func (c *ChildRef) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, c.ID)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(c.Shard), 10)
	if c.State != "" {
		b = append(b, `,"state":`...)
		b = appendJSONString(b, string(c.State))
	}
	if c.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, c.Error)
	}
	if c.Code != "" {
		b = append(b, `,"code":`...)
		b = appendJSONString(b, c.Code)
	}
	if c.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(c.Epoch), 10)
	}
	return append(b, '}')
}

// AppendPageJSON appends a page of records, {"txns":[...]} with
// "nextCursor" when it is set, to b. A nil page is "txns":null and a
// nil record null, as encoding/json writes them.
func AppendPageJSON(b []byte, txns []*Txn, nextCursor string) ([]byte, error) {
	b = append(b, `{"txns":`...)
	if txns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range txns {
			if i > 0 {
				b = append(b, ',')
			}
			if t == nil {
				b = append(b, "null"...)
				continue
			}
			var err error
			if b, err = t.AppendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if nextCursor != "" {
		b = append(b, `,"nextCursor":`...)
		b = appendJSONString(b, nextCursor)
	}
	return append(b, '}'), nil
}

func appendJSONStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string with encoding/json's
// escapes.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			// Valid JSON, but not valid JavaScript: escaped, as
			// encoding/json does.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONTime appends t as time.Time.MarshalJSON does.
func appendJSONTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	b, err := t.AppendText(b)
	if err != nil {
		return nil, err
	}
	return append(b, '"'), nil
}

// --- Decoding ---------------------------------------------------------

// UnmarshalJSON implements json.Unmarshaler: it decodes one record,
// accepting exactly what encoding/json accepts into a Txn.
func (t *Txn) UnmarshalJSON(data []byte) error {
	d := getJSONDecoder(data)
	defer d.release()
	if err := d.txn(t, 0); err != nil {
		return err
	}
	return d.end()
}

// UnmarshalPageJSON decodes a page of records written by
// AppendPageJSON into txns and nextCursor, accepting exactly what
// encoding/json accepts into a struct of those two fields.
func UnmarshalPageJSON(data []byte, txns *[]*Txn, nextCursor *string) error {
	d := getJSONDecoder(data)
	defer d.release()
	if err := d.page(txns, nextCursor); err != nil {
		return err
	}
	return d.end()
}

// jsonDecoder reads one JSON document. The input is copied once into
// a string, and every decoded string without escapes is a substring of
// it. Arrays are decoded into the decoder's scratch slices and copied
// out at their length, so a record costs one copy of its bytes plus one
// allocation per non-empty slice.
type jsonDecoder struct {
	data []byte
	s    string // data as a string
	off  int
	buf  []byte // scratch for strings with escapes

	strs     []string
	logs     []LogRecord
	stamps   []StateStamp
	ints     []int
	children []ChildRef
	txns     []*Txn
}

var jsonDecoders = sync.Pool{New: func() any { return new(jsonDecoder) }}

func getJSONDecoder(data []byte) *jsonDecoder {
	d := jsonDecoders.Get().(*jsonDecoder)
	d.data, d.s, d.off = data, string(data), 0
	return d
}

// release returns d to the pool; its scratch slices hold nothing (slice
// clears what it used).
func (d *jsonDecoder) release() {
	d.data, d.s = nil, ""
	jsonDecoders.Put(d)
}

func (d *jsonDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("txn: JSON at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end (or at
// a NUL byte, which is no more valid JSON than the end).
func (d *jsonDecoder) peek() byte {
	for ; d.off < len(d.s); d.off++ {
		if c := d.s[d.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *jsonDecoder) unexpected() error {
	if c := d.peek(); c != 0 {
		return d.errorf("invalid character %q", c)
	}
	return d.errorf("unexpected end of input")
}

// end accepts nothing but whitespace after the value.
func (d *jsonDecoder) end() error {
	if d.peek(); d.off < len(d.s) {
		return d.errorf("invalid character %q after the value", d.s[d.off])
	}
	return nil
}

// null consumes a null literal if one is next.
func (d *jsonDecoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if !strings.HasPrefix(d.s[d.off:], "null") {
		return false, d.unexpected()
	}
	d.off += len("null")
	return true, nil
}

// open consumes the '{' or '[' that begins a container nested depth
// levels deep, or reports the value found instead.
func (d *jsonDecoder) open(c byte, depth int, what string) error {
	if d.peek() != c {
		return d.typeError(depth-1, what)
	}
	if depth > maxJSONDepth {
		return d.errorf("exceeded max depth")
	}
	d.off++
	return nil
}

// next advances to a container's next element: it consumes the ','
// before one (unless first) and reports false once it consumes close.
func (d *jsonDecoder) next(close byte, first bool) (bool, error) {
	switch c := d.peek(); {
	case c == close:
		d.off++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	}
	return false, d.unexpected()
}

// key reads an object member's key and the ':' after it.
func (d *jsonDecoder) key() (string, error) {
	if d.peek() != '"' {
		return "", d.unexpected()
	}
	k, err := d.str()
	if err != nil {
		return "", err
	}
	if d.peek() != ':' {
		return "", d.unexpected()
	}
	d.off++
	return k, nil
}

// field returns the name among names that key selects: the exact match,
// else one equal under encoding/json's case folding, else "".
func field(key string, names []string) string {
	for _, n := range names {
		if key == n {
			return n
		}
	}
	for _, n := range names {
		if equalFold(key, n) {
			return n
		}
	}
	return ""
}

// equalFold reports whether key folds to the ASCII name as
// encoding/json folds keys: ASCII letters by case, other runes to the
// least rune of their Unicode fold orbit (so U+212A, the Kelvin sign,
// matches 'k').
func equalFold(key, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		r, n := utf8.DecodeRuneInString(key[i:])
		i += n
		if foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// plain lists the bytes a string literal holds as they are: ASCII
// but for control characters, the quote and the backslash.
var plain = func() (p [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		p[c] = c != '"' && c != '\\'
	}
	return p
}()

// str reads a string literal, unescaping it as encoding/json does:
// invalid UTF-8 and unpaired surrogates become U+FFFD.
func (d *jsonDecoder) str() (string, error) {
	s := d.s
	start := d.off + 1
	for i := start; i < len(s); {
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		c := s[i]
		if c == '"' {
			d.off = i + 1
			return s[start:i], nil
		}
		if c < utf8.RuneSelf {
			return d.strEscaped(start, i)
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			return d.strEscaped(start, i)
		}
		i += n
	}
	d.off = len(s)
	return "", d.errorf("unexpected end of input in a string")
}

// strEscaped finishes a string literal from i, where the first byte
// that must be rewritten is.
func (d *jsonDecoder) strEscaped(start, i int) (string, error) {
	s := d.s
	b := append(d.buf[:0], s[start:i]...)
	defer func() { d.buf = b }()
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.off = i + 1
			return string(b), nil
		case c == '\\' && i+1 < len(s) && s[i+1] == 'u':
			r := hex4(s[i+2:])
			if r < 0 {
				d.off = i
				return "", d.errorf(`invalid \\u escape`)
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if dec := utf16.DecodeRune(r, u4(s[i:])); dec != unicode.ReplacementChar {
					b = utf8.AppendRune(b, dec)
					i += 6
					continue
				}
				r = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, r)
		case c == '\\' && i+1 < len(s):
			e := unescape(s[i+1])
			if e == 0 {
				d.off = i
				return "", d.errorf("invalid escape %q", s[i:i+2])
			}
			b = append(b, e)
			i += 2
		case c == '\\':
			i++
		case c < ' ':
			d.off = i
			return "", d.errorf("control character %q in a string", c)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.off = len(s)
	return "", d.errorf("unexpected end of input in a string")
}

// unescape returns the byte a one-letter escape stands for, 0 for an
// invalid escape.
func unescape(e byte) byte {
	switch e {
	case '"', '\\', '/':
		return e
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// u4 decodes a \uXXXX escape at the start of s, or returns -1.
func u4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// hex4 decodes four hex digits at the start of s, or returns -1.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a number literal.
func (d *jsonDecoder) number() (string, error) {
	s, i := d.s, d.off
	digits := func() bool {
		n := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return "", d.errorf("invalid number")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return "", d.errorf("invalid number")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return "", d.errorf("invalid number")
		}
	}
	lit := s[d.off:i]
	d.off = i
	return lit, nil
}

// skip reads and discards one value nested depth levels deep,
// validating it as encoding/json does.
func (d *jsonDecoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '"':
		_, err := d.str()
		return err
	case '{', '[':
		close := byte('}')
		if c == '[' {
			close = ']'
		}
		if depth+1 > maxJSONDepth {
			return d.errorf("exceeded max depth")
		}
		d.off++
		for first := true; ; first = false {
			more, err := d.next(close, first)
			if err != nil || !more {
				return err
			}
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if strings.HasPrefix(d.s[d.off:], lit) {
				d.off += len(lit)
				return nil
			}
		}
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, err := d.number()
		return err
	}
	return d.unexpected()
}

// typeError skips the value a field of the named type cannot hold and
// reports it (or the value's own syntax error).
func (d *jsonDecoder) typeError(depth int, typ string) error {
	start := d.off
	if err := d.skip(depth); err != nil {
		return err
	}
	kind := "number"
	switch d.s[start] {
	case '"':
		kind = "string"
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case 't', 'f':
		kind = "bool"
	}
	d.off = start
	return d.errorf("cannot decode a JSON %s into %s", kind, typ)
}

// string decodes a string field; null leaves it as it was.
func (d *jsonDecoder) string(dst *string, depth int) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		*dst = s
		return err
	case 'n':
		_, err := d.null()
		return err
	}
	return d.typeError(depth, "a string")
}

// int decodes an integer field; null leaves it as it was.
func (d *jsonDecoder) int(dst *int, depth int) error {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(lit, 10, strconv.IntSize)
		if err != nil {
			return d.errorf("cannot decode %s into an int", lit)
		}
		*dst = int(n)
		return nil
	case c == 'n':
		_, err := d.null()
		return err
	}
	return d.typeError(depth, "an int")
}

// bool decodes a boolean field; null leaves it as it was.
func (d *jsonDecoder) bool(dst *bool, depth int) error {
	d.peek()
	for _, lit := range [...]string{"true", "false"} {
		if strings.HasPrefix(d.s[d.off:], lit) {
			d.off += len(lit)
			*dst = lit == "true"
			return nil
		}
	}
	if d.peek() == 'n' {
		_, err := d.null()
		return err
	}
	return d.typeError(depth, "a bool")
}

// time decodes a time field with time.Time.UnmarshalJSON, which reads
// the literal as it stands (escapes are not undone) and takes null as
// no change.
func (d *jsonDecoder) time(dst *time.Time, depth int) error {
	d.peek()
	start := d.off
	if err := d.skip(depth); err != nil {
		return err
	}
	if err := dst.UnmarshalJSON(d.data[start:d.off]); err != nil {
		return d.errorf("%v", err)
	}
	return nil
}

// slice decodes an array into *s as encoding/json does: null makes *s
// nil, [] makes it empty but not nil, and elements are decoded by elem
// in place over *s's backing array, so a key given twice reuses the
// storage (and the elements) the first one filled. When *s has no
// storage yet, the elements are decoded into scratch instead and
// copied out into a slice of their number.
func slice[T any](d *jsonDecoder, s *[]T, scratch *[]T, depth int, what string, elem func(*T) error) error {
	if null, err := d.null(); null || err != nil {
		if null {
			*s = nil
		}
		return err
	}
	if err := d.open('[', depth+1, what); err != nil {
		return err
	}
	v, fresh := *s, cap(*s) == 0
	if fresh {
		v = (*scratch)[:0]
	}
	i, err := 0, error(nil)
	for ; ; i++ {
		var more bool
		if more, err = d.next(']', i == 0); err != nil || !more {
			break
		}
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		default:
			var zero T
			v = append(v, zero)
		}
		if err = elem(&v[i]); err != nil {
			break
		}
	}
	if fresh {
		if err == nil {
			*s = make([]T, i)
			copy(*s, v[:i])
		}
		clear(v)
		*scratch = v[:0]
		return err
	}
	if err == nil {
		if i == 0 {
			v = []T{}
		}
		*s = v[:i]
	}
	return err
}

func (d *jsonDecoder) strings(dst *[]string, depth int) error {
	return slice(d, dst, &d.strs, depth, "a list of strings", func(s *string) error { return d.string(s, depth+1) })
}

// object decodes an object nested depth levels deep: member gets each
// member whose key selects one of fields, with the value next; the
// values of other keys are skipped. null leaves the target as it was.
func (d *jsonDecoder) object(depth int, what string, fields []string, member func(field string) error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if err := d.open('{', depth+1, what); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := d.next('}', first)
		if !more || err != nil {
			return err
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if f := field(key, fields); f != "" {
			err = member(f)
		} else {
			err = d.skip(depth + 1)
		}
		if err != nil {
			return err
		}
	}
}

var txnFields = []string{
	"id", "proc", "args", "state", "log", "undoneThrough", "error", "code",
	"submittedAt", "completedAt", "history", "signal", "parent",
	"participants", "children", "decision", "decisionVia", "epoch",
}

// txn decodes a record nested depth levels deep.
func (d *jsonDecoder) txn(t *Txn, depth int) error {
	in := depth + 1
	return d.object(depth, "a transaction record", txnFields, func(f string) error {
		switch f {
		case "id":
			return d.string(&t.ID, in)
		case "proc":
			return d.string(&t.Proc, in)
		case "args":
			return d.strings(&t.Args, in)
		case "state":
			return d.string((*string)(&t.State), in)
		case "log":
			return slice(d, &t.Log, &d.logs, in, "a log", func(r *LogRecord) error { return d.logRecord(r, in+1) })
		case "undoneThrough":
			return d.int(&t.UndoneThrough, in)
		case "error":
			return d.string(&t.Error, in)
		case "code":
			return d.string(&t.Code, in)
		case "submittedAt":
			return d.time(&t.SubmittedAt, in)
		case "completedAt":
			return d.time(&t.CompletedAt, in)
		case "history":
			return slice(d, &t.History, &d.stamps, in, "a history", func(s *StateStamp) error { return d.stateStamp(s, in+1) })
		case "signal":
			return d.string((*string)(&t.Signal), in)
		case "parent":
			return d.string(&t.Parent, in)
		case "participants":
			return slice(d, &t.Participants, &d.ints, in, "a list of shards", func(p *int) error { return d.int(p, in+1) })
		case "children":
			return slice(d, &t.Children, &d.children, in, "a child ledger", func(c *ChildRef) error { return d.childRef(c, in+1) })
		case "decision":
			return d.string(&t.Decision, in)
		case "decisionVia":
			return d.string(&t.DecisionVia, in)
		default: // "epoch"
			return d.int(&t.Epoch, in)
		}
	})
}

var logRecordFields = []string{"seq", "path", "action", "args", "undo", "undoArgs", "undoPath", "foreign"}

func (d *jsonDecoder) logRecord(r *LogRecord, depth int) error {
	in := depth + 1
	return d.object(depth, "a log record", logRecordFields, func(f string) error {
		switch f {
		case "seq":
			return d.int(&r.Seq, in)
		case "path":
			return d.string(&r.Path, in)
		case "action":
			return d.string(&r.Action, in)
		case "args":
			return d.strings(&r.Args, in)
		case "undo":
			return d.string(&r.Undo, in)
		case "undoArgs":
			return d.strings(&r.UndoArgs, in)
		case "undoPath":
			return d.string(&r.UndoPath, in)
		default: // "foreign"
			return d.bool(&r.Foreign, in)
		}
	})
}

var stateStampFields = []string{"state", "at"}

func (d *jsonDecoder) stateStamp(s *StateStamp, depth int) error {
	in := depth + 1
	return d.object(depth, "a history entry", stateStampFields, func(f string) error {
		if f == "state" {
			return d.string((*string)(&s.State), in)
		}
		return d.time(&s.At, in)
	})
}

var childRefFields = []string{"id", "shard", "state", "error", "code", "epoch"}

func (d *jsonDecoder) childRef(c *ChildRef, depth int) error {
	in := depth + 1
	return d.object(depth, "a child ledger entry", childRefFields, func(f string) error {
		switch f {
		case "id":
			return d.string(&c.ID, in)
		case "shard":
			return d.int(&c.Shard, in)
		case "state":
			return d.string((*string)(&c.State), in)
		case "error":
			return d.string(&c.Error, in)
		case "code":
			return d.string(&c.Code, in)
		default: // "epoch"
			return d.int(&c.Epoch, in)
		}
	})
}

var pageFields = []string{"txns", "nextCursor"}

func (d *jsonDecoder) page(txns *[]*Txn, nextCursor *string) error {
	return d.object(0, "a page", pageFields, func(f string) error {
		if f == "nextCursor" {
			return d.string(nextCursor, 1)
		}
		return slice(d, txns, &d.txns, 1, "a list of records", func(p **Txn) error {
			// A null element is a nil record; any other reuses the
			// record already there, as encoding/json does.
			if null, err := d.null(); null || err != nil {
				if null {
					*p = nil
				}
				return err
			}
			if *p == nil {
				*p = new(Txn)
			}
			return d.txn(*p, 2)
		})
	})
}
