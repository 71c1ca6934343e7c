package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Request bodies are read once into a pooled buffer and decoded by a
// strict single-pass JSON reader. One reflective reader fills any
// request struct from its fields' json tags, and it accepts and rejects
// exactly what json.Decoder with DisallowUnknownFields plus a
// trailing-data check does, leaving the same values behind
// (FuzzDecodeMatchesEncodingJSON holds it to that):
//
//   - a key matches a field's tag exactly or by bytes.EqualFold; any
//     other key is an unknown-field error;
//   - null leaves a number, bool or string as it was and resets a slice
//     to nil;
//   - a repeated key wins last, and an array decodes into the slice it
//     replaces element by element, as encoding/json does;
//   - numbers follow the JSON grammar and parse with strconv at the
//     field's type, so 1.5 or 1e2 for an int, or 1e999 for a float, is
//     a type error;
//   - type errors and unknown keys do not stop the read: the rest of the
//     body must still be well-formed, a syntax error anywhere takes
//     precedence, and otherwise the first such error is reported;
//   - after the one top-level value only whitespace may follow.

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// maxPooledBuf caps the capacity of a buffer returned to its pool, so
// one oversized body or key cannot pin its memory for later requests.
const maxPooledBuf = 64 << 10

// errTrailing reports bytes other than whitespace after the request's
// JSON value.
var errTrailing = errors.New("trailing data after JSON request")

// decoder reads one request body. Its buffer is pooled across requests.
type decoder struct {
	data  []byte
	off   int
	depth int
	field []byte // the key whose value is being read, for messages
	// syntax is set once the body is known not to be one well-formed
	// JSON value; every read stops there.
	syntax error
	// err is the first type error or unknown field; reading goes on.
	err error
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// load reads all of r into d's buffer and readies d to decode it.
func (d *decoder) load(r io.Reader) error {
	b := d.data[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			d.data = b
			return err
		}
	}
	*d = decoder{data: b}
	return nil
}

// free returns d to the pool unless its buffer has grown past the cap.
func (d *decoder) free() {
	if cap(d.data) > maxPooledBuf {
		return
	}
	*d = decoder{data: d.data[:0]}
	decoderPool.Put(d)
}

// decode reads the loaded body into dst, a pointer to a request
// struct: one JSON value, then nothing but whitespace.
func (d *decoder) decode(dst any) error {
	d.value(reflect.ValueOf(dst).Elem())
	if d.syntax != nil {
		return d.syntax
	}
	if d.err != nil {
		return d.err
	}
	d.space()
	if d.off < len(d.data) {
		return errTrailing
	}
	return nil
}

func (d *decoder) ok() bool { return d.syntax == nil }

// fail records a syntax error; the first one stands.
func (d *decoder) fail(msg string) {
	if d.syntax == nil {
		d.syntax = errors.New(msg)
	}
}

// unexpected reports the byte at d.off as a syntax error.
func (d *decoder) unexpected(context string) {
	if d.off >= len(d.data) {
		d.fail("unexpected end of JSON input")
		return
	}
	d.fail(fmt.Sprintf("invalid character %q %s (offset %d)", d.data[d.off], context, d.off))
}

func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte. At the end of the
// input it records the syntax error and returns 0.
func (d *decoder) peek() byte {
	d.space()
	if d.off >= len(d.data) {
		d.fail("unexpected end of JSON input")
		return 0
	}
	return d.data[d.off]
}

// --- well-formedness ---

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// literal consumes the keyword word (true, false or null).
func (d *decoder) literal(word string) {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) || d.data[d.off] != word[i] {
			d.unexpected("in literal " + word)
			return
		}
		d.off++
	}
}

// number consumes one number literal and returns its bytes, or nil
// after a syntax error.
func (d *decoder) number() []byte {
	b, start := d.data, d.off
	if d.off < len(b) && b[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(b) && b[d.off] == '0':
		d.off++
	case d.off < len(b) && isDigit(b[d.off]):
		d.digits()
	default:
		d.unexpected("in numeric literal")
		return nil
	}
	if d.off < len(b) && b[d.off] == '.' {
		d.off++
		if d.off >= len(b) || !isDigit(b[d.off]) {
			d.unexpected("after decimal point in numeric literal")
			return nil
		}
		d.digits()
	}
	if d.off < len(b) && (b[d.off] == 'e' || b[d.off] == 'E') {
		d.off++
		if d.off < len(b) && (b[d.off] == '+' || b[d.off] == '-') {
			d.off++
		}
		if d.off >= len(b) || !isDigit(b[d.off]) {
			d.unexpected("in exponent of numeric literal")
			return nil
		}
		d.digits()
	}
	return b[start:d.off]
}

func (d *decoder) digits() {
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
}

// str consumes one string literal and returns it, quotes included.
// plain reports printable ASCII without escapes: a literal whose
// contents are its value.
func (d *decoder) str() (lit []byte, plain bool) {
	b, start := d.data, d.off
	plain = true
	for d.off++; d.off < len(b); {
		switch c := b[d.off]; {
		case c == '"':
			d.off++
			return b[start:d.off], plain
		case c == '\\':
			plain = false
			d.off++
			if d.off >= len(b) {
				break
			}
			switch b[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if d.off < len(b) && !isHex(b[d.off]) {
						d.unexpected("in \\u hexadecimal character escape")
						return nil, false
					}
					d.off++
				}
			default:
				d.unexpected("in string escape code")
				return nil, false
			}
		case c < ' ':
			d.unexpected("in string literal")
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.off++
		}
	}
	d.off = len(b)
	d.fail("unexpected end of JSON input")
	return nil, false
}

// unquote returns the value of a string literal str scanned. Literals
// with escapes or non-ASCII bytes go to encoding/json, which decodes
// escapes and replaces invalid UTF-8 exactly as the reference does.
func (d *decoder) unquote(lit []byte, plain bool) string {
	if plain {
		return string(lit[1 : len(lit)-1])
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		d.fail(err.Error())
	}
	return s
}

// push enters an array or object at d.off.
func (d *decoder) push() bool {
	d.depth++
	if d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	d.off++
	return true
}

// pop leaves an array or object at its closing byte.
func (d *decoder) pop() {
	d.off++
	d.depth--
}

// members walks the object at d.off, calling member with each key once
// the decoder sits at that key's value; member must consume the value.
func (d *decoder) members(member func(key []byte)) {
	if !d.push() {
		return
	}
	if d.peek() == '}' {
		d.pop()
		return
	}
	for {
		if d.peek() != '"' {
			d.unexpected("looking for beginning of object key string")
			return
		}
		lit, plain := d.str()
		if !d.ok() {
			return
		}
		if d.peek() != ':' {
			d.unexpected("after object key")
			return
		}
		d.off++
		key := lit[1 : len(lit)-1]
		if !plain {
			key = []byte(d.unquote(lit, false))
		}
		member(key)
		if !d.ok() {
			return
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.pop()
			return
		default:
			d.unexpected("after object key:value pair")
			return
		}
	}
}

// elements walks the array at d.off, calling elem at each element;
// elem must consume it.
func (d *decoder) elements(elem func()) {
	if !d.push() {
		return
	}
	if d.peek() == ']' {
		d.pop()
		return
	}
	for {
		elem()
		if !d.ok() {
			return
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.pop()
			return
		default:
			d.unexpected("after array element")
			return
		}
	}
}

// skip consumes one well-formed value of any kind.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.members(func([]byte) { d.skip() })
	case c == '[':
		d.elements(d.skip)
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		d.number()
	default:
		d.unexpected("looking for beginning of value")
	}
}

// --- typed reads ---

// typeError records that a value of JSON kind got cannot be stored in
// the current field, whose Go type is want.
func (d *decoder) typeError(got, want string) {
	switch {
	case d.err != nil:
	case d.field == nil:
		d.err = fmt.Errorf("cannot unmarshal %s into the request %s", got, want)
	default:
		d.err = fmt.Errorf("cannot unmarshal %s into field %q of type %s", got, d.field, want)
	}
}

// mismatch skips a value whose JSON kind the field cannot hold and
// records the type error.
func (d *decoder) mismatch(want string) {
	if !d.ok() {
		return
	}
	var got string
	switch d.data[d.off] {
	case '{':
		got = "object"
	case '[':
		got = "array"
	case '"':
		got = "string"
	case 't', 'f':
		got = "bool"
	default:
		got = "number"
	}
	d.skip()
	d.typeError(got, want)
}

// value reads one JSON value into v, a settable value of a type
// wireFields accepts. A scalar is read into a copy that starts out as
// v's value, so null leaves v as it was.
func (d *decoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		n := int(v.Int())
		d.int(&n)
		v.SetInt(int64(n))
	case reflect.Float64:
		f := v.Float()
		d.float(&f)
		v.SetFloat(f)
	case reflect.Bool:
		b := v.Bool()
		d.bool(&b)
		v.SetBool(b)
	case reflect.String:
		s := v.String()
		d.string(&s)
		v.SetString(s)
	case reflect.Slice:
		d.slice(v)
	case reflect.Struct:
		d.object(v)
	}
}

// object reads an object into the struct v, matching each key against
// the fields' json tags. null leaves the struct as it was.
func (d *decoder) object(v reflect.Value) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case '{':
		fields := wireFields(v.Type())
		outer := d.field
		d.members(func(key []byte) {
			d.field = key
			for i, name := range fields {
				if keyIs(key, name) {
					d.value(v.Field(i))
					return
				}
			}
			if d.err == nil {
				d.err = fmt.Errorf("unknown field %q", key)
			}
			d.skip()
		})
		d.field = outer
	default:
		d.mismatch("object")
	}
}

// keyIs reports whether an object key names the field tagged name:
// an exact match or, as encoding/json allows, a case-folded one.
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// slice reads an array into the slice v the way encoding/json does:
// element i decodes into the slice's existing element i where there is
// one (within its capacity, too), the slice is cut to the array's
// length, an empty array leaves a fresh empty non-nil slice, and null
// leaves nil. Growth keeps every element the slice held up to its
// capacity, so the values a repeated key decodes into do not depend on
// how far the capacity grows; it starts at 8 to spare small arrays the
// doublings.
func (d *decoder) slice(v reflect.Value) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		v.SetZero()
		return
	case '[':
	default:
		d.mismatch("array")
		return
	}
	// While reading, v spans its whole capacity: the elements past its
	// length are reused in place all the same.
	i := 0
	v.SetLen(v.Cap())
	d.elements(func() {
		if i == v.Len() {
			v.Grow(max(i, 8))
			v.SetLen(v.Cap())
		}
		d.value(v.Index(i))
		i++
	})
	if i == 0 {
		// A fresh empty slice: its spare capacity is zero, as a grown
		// one's would be, so no old element can resurface.
		v.SetZero()
		v.Grow(1)
	}
	v.SetLen(i)
}

func (d *decoder) int(p *int) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		lit := d.number()
		if lit == nil {
			return
		}
		n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
		if err != nil {
			d.typeError("number "+string(lit), "int")
			return
		}
		*p = int(n)
	default:
		d.mismatch("int")
	}
}

func (d *decoder) float(p *float64) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		lit := d.number()
		if lit == nil {
			return
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.typeError("number "+string(lit), "float64")
			return
		}
		*p = v
	default:
		d.mismatch("float64")
	}
}

func (d *decoder) bool(p *bool) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case 't':
		d.literal("true")
		*p = true
	case 'f':
		d.literal("false")
		*p = false
	default:
		d.mismatch("bool")
	}
}

func (d *decoder) string(p *string) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case '"':
		lit, plain := d.str()
		if lit != nil {
			*p = d.unquote(lit, plain)
		}
	default:
		d.mismatch("string")
	}
}

var wireFieldCache sync.Map // reflect.Type → []string

// wireFields returns the json tag names of request struct type t's
// fields, in field order. It panics on a field the reader cannot fill:
// an untagged or unexported one, or one whose type is not int, float64,
// bool, string, a slice of a readable type or a request struct.
func wireFields(t reflect.Type) []string {
	if names, ok := wireFieldCache.Load(t); ok {
		return names.([]string)
	}
	names := make([]string, t.NumField())
	for i := range names {
		f := t.Field(i)
		names[i], _, _ = strings.Cut(f.Tag.Get("json"), ",")
		if names[i] == "" || !f.IsExported() {
			panic(fmt.Sprintf("serve: request field %s.%s needs a json tag and an exported name", t, f.Name))
		}
		checkWireType(f.Type)
	}
	cached, _ := wireFieldCache.LoadOrStore(t, names)
	return cached.([]string)
}

func checkWireType(t reflect.Type) {
	switch t {
	case reflect.TypeFor[int](), reflect.TypeFor[float64](), reflect.TypeFor[bool](), reflect.TypeFor[string]():
		return
	}
	switch t.Kind() {
	case reflect.Slice:
		checkWireType(t.Elem())
	case reflect.Struct:
		wireFields(t)
	default:
		panic(fmt.Sprintf("serve: the request reader cannot fill a %s", t))
	}
}
