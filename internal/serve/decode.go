package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// Request bodies are read once into a pooled buffer and decoded by a
// strict single-pass JSON reader. It fills a request struct through the
// struct's request plan (route.go), compiled once per type, and it
// accepts and rejects exactly what json.Decoder with
// DisallowUnknownFields plus a trailing-data check does, leaving the
// same values behind (FuzzDecodeMatchesEncodingJSON holds it to that):
//
//   - a key matches a field's tag exactly or, failing that, by
//     bytes.EqualFold; any other key is an unknown-field error;
//   - null leaves a number, bool or string as it was and resets a slice
//     to nil;
//   - a repeated key wins last, and an array decodes into the slice it
//     replaces element by element, as encoding/json does;
//   - numbers follow the JSON grammar and are converted in the same pass
//     that scans them, with strconv as the fallback for the literals the
//     fast paths cannot decide (number.go), so 1.5 or 1e2 for an int, or
//     1e999 for a float, is a type error;
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

// decode reads the loaded body into the request struct at p, whose
// plan is o: one JSON value, then nothing but whitespace.
func (d *decoder) decode(o *op, p unsafe.Pointer) error {
	d.read(o, p)
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

// decode reads the body loaded into d into *dst, which is fresh or
// reset.
func (pl *requestPlan[T]) decode(d *decoder, dst *T) error {
	err := d.decode(&pl.op, unsafe.Pointer(dst))
	pl.clr.trim(unsafe.Pointer(dst))
	return err
}

// A request value is reused across requests (requestPlan.get and put).
// Between uses reset zeroes it but keeps its slices' capacity, and
// zeroes every element up to that capacity too, since readSlice decodes
// into the elements past a slice's length as they stand: a null
// element or a repeated key would otherwise read a value from an
// earlier request. After a decode, trim sets back to nil each slice the
// body never set; reading leaves a slice nil, empty with no capacity, or
// non-empty, so a slice of length 0 with spare capacity is one that
// reset left. A reset value thus decodes every body to what a fresh one
// does (FuzzDecodeReusedMatchesFresh holds them to that).

// clearPlan is where reset and trim find the parts of a request type,
// nested structs flattened: the byte spans of its ints, floats and
// bools, merged where only padding parts them; its strings; and its
// slices.
type clearPlan struct {
	spans []span
	strs  []uintptr // offsets of strings
	slots []slot
}

// span is n bytes at offset off that hold no pointers.
type span struct{ off, n uintptr }

// slot is a slice at offset off whose plan is op.
type slot struct {
	off uintptr
	op  *op
}

// newClearPlan lays out the values whose plan is o.
func newClearPlan(o *op) *clearPlan {
	c := &clearPlan{}
	c.add(o, 0, false)
	return c
}

// add files the value at offset off, whose plan is o, and reports
// whether it ends in a span; after one, the next scalar extends it.
func (c *clearPlan) add(o *op, off uintptr, inSpan bool) bool {
	var size uintptr
	switch o.kind {
	case opInt:
		size = unsafe.Sizeof(int(0))
	case opFloat:
		size = unsafe.Sizeof(float64(0))
	case opBool:
		size = unsafe.Sizeof(false)
	case opString:
		c.strs = append(c.strs, off)
		return false
	case opStruct:
		for i := range o.fields {
			inSpan = c.add(&o.fields[i].op, off+o.fields[i].off, inSpan)
		}
		return inSpan
	default:
		c.slots = append(c.slots, slot{off, o})
		return false
	}
	if last := len(c.spans) - 1; inSpan {
		c.spans[last].n = off + size - c.spans[last].off
	} else {
		c.spans = append(c.spans, span{off, size})
	}
	return true
}

// reset zeroes the value at p, keeping its slices' capacity, and
// returns the bytes those slices hold.
func (c *clearPlan) reset(p unsafe.Pointer) (n uintptr) {
	for _, s := range c.spans {
		clear(unsafe.Slice((*byte)(unsafe.Add(p, s.off)), s.n))
	}
	for _, off := range c.strs {
		*(*string)(unsafe.Add(p, off)) = ""
	}
	for _, s := range c.slots {
		n += s.op.resetSlice(unsafe.Add(p, s.off))
	}
	return n
}

// resetSlice cuts the slice at p, whose plan is o, to length 0 with
// every element up to its capacity zeroed, and returns the bytes it
// holds. Float rows keep their own capacity; other elements are zeroed
// whole, so slices inside them go back to nil.
func (o *op) resetSlice(p unsafe.Pointer) (n uintptr) {
	switch o.kind {
	case opFloats:
		return resetFloats((*[]float64)(p))
	case opFloatRows:
		s := (*[][]float64)(p)
		rows := (*s)[:cap(*s)]
		for i := range rows {
			n += resetFloats(&rows[i])
		}
		*s = rows[:0]
		return n + uintptr(len(rows))*unsafe.Sizeof(rows[0])
	}
	v := reflect.NewAt(o.slice, p).Elem()
	v.SetLen(v.Cap())
	v.Clear()
	v.SetLen(0)
	return uintptr(v.Cap()) * o.slice.Elem().Size()
}

func resetFloats(s *[]float64) uintptr {
	v := (*s)[:cap(*s)]
	clear(v)
	*s = v[:0]
	return uintptr(len(v)) * 8
}

// trim sets every slice in the value at p that has length 0 and spare
// capacity back to nil. Each element within a slice's length was read,
// so a slice inside one is nil, empty without capacity or non-empty:
// only the slots themselves need a look.
func (c *clearPlan) trim(p unsafe.Pointer) {
	for _, s := range c.slots {
		q := unsafe.Add(p, s.off)
		switch s.op.kind {
		case opFloats:
			trimSlice((*[]float64)(q))
		case opFloatRows:
			trimSlice((*[][]float64)(q))
		default:
			if v := reflect.NewAt(s.op.slice, q).Elem(); v.Len() == 0 && v.Cap() > 0 {
				v.SetZero()
			}
		}
	}
}

func trimSlice[T any](s *[]T) {
	if len(*s) == 0 && cap(*s) > 0 {
		*s = nil
	}
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

// number consumes one number literal and scans it into n, which must
// be zero (see number.go); it reports false after a syntax error.
func (d *decoder) number(n *num) bool {
	b, start := d.data, d.off
	i := start
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	// dp is the decimal point's place, counted in significant digits.
	var dp int
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		first := i
		i, _ = n.fold(b, i)
		dp = i - first
	default:
		d.off = i
		d.unexpected("in numeric literal")
		return false
	}
	n.integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			d.off = i
			d.unexpected("after decimal point in numeric literal")
			return false
		}
		var lead int
		i, lead = n.fold(b, i)
		dp -= lead
		n.integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.off = i
			d.unexpected("in exponent of numeric literal")
			return false
		}
		// Past 10000 the exponent only needs to be huge, as strconv
		// reads it too.
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		dp += e
		n.integer = false
	}
	if n.man != 0 {
		n.exp10 = dp - n.kept
	}
	d.off = i
	n.lit = b[start:i]
	return true
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
		d.number(new(num))
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

// read reads one JSON value into the value at p, whose plan is o.
func (d *decoder) read(o *op, p unsafe.Pointer) {
	switch o.kind {
	case opInt:
		d.int((*int)(p))
	case opFloat:
		d.float((*float64)(p))
	case opBool:
		d.bool((*bool)(p))
	case opString:
		d.string((*string)(p))
	case opFloats:
		d.floats((*[]float64)(p))
	case opFloatRows:
		readSlice(d, (*[][]float64)(p), (*decoder).floats)
	case opSlice:
		d.slice(o, p)
	case opStruct:
		d.object(o, p)
	}
}

// object reads an object into the struct at p, matching each key
// against the fields' json tags. null leaves the struct as it was.
func (d *decoder) object(o *op, p unsafe.Pointer) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case '{':
		outer := d.field
		d.members(func(key []byte) {
			d.field = key
			if f := o.field(key); f != nil {
				d.read(&f.op, unsafe.Add(p, f.off))
				return
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

// field returns the field an object key names: the one whose tag it
// matches exactly, or else, as encoding/json allows, the first whose
// tag it matches case-folded. It returns nil for an unknown key.
func (o *op) field(key []byte) *field {
	for i := range o.fields {
		if string(key) == o.fields[i].name {
			return &o.fields[i]
		}
	}
	for i := range o.fields {
		if bytes.EqualFold(key, []byte(o.fields[i].name)) {
			return &o.fields[i]
		}
	}
	return nil
}

// readSlice reads an array into *s the way encoding/json does: element
// i decodes, through elem, into the slice's existing element i where
// there is one (within its capacity, too), the slice is cut to the
// array's length, an empty array leaves a fresh empty non-nil slice,
// and null leaves nil. Growth keeps every element the slice held up to
// its capacity, so the values a repeated key decodes into do not depend
// on how far the capacity grows; it starts at 8 to spare small arrays
// the doublings.
func readSlice[T any](d *decoder, s *[]T, elem func(*decoder, *T)) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		*s = nil
		return
	case '[':
	default:
		d.mismatch("array")
		return
	}
	// While reading, v spans the whole capacity: the elements past the
	// slice's length are reused in place all the same.
	v := (*s)[:cap(*s)]
	i := 0
	d.elements(func() {
		if i == len(v) {
			v = slices.Grow(v, max(i, 8))
			v = v[:cap(v)]
		}
		elem(d, &v[i])
		i++
	})
	if i == 0 {
		// A fresh empty slice: it has no spare capacity, so no old
		// element can resurface.
		*s = []T{}
		return
	}
	*s = v[:i]
}

func (d *decoder) floats(s *[]float64) { readSlice(d, s, (*decoder).float) }

// slice reads an array into a slice of any other element type, the
// slice at p whose plan is o, with readSlice's semantics; reflect grows
// it, and o.elem reads each element in place.
func (d *decoder) slice(o *op, p unsafe.Pointer) {
	v := reflect.NewAt(o.slice, p).Elem()
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
	i := 0
	v.SetLen(v.Cap())
	d.elements(func() {
		if i == v.Len() {
			v.Grow(max(i, 8))
			v.SetLen(v.Cap())
		}
		d.read(o.elem, v.Index(i).Addr().UnsafePointer())
		i++
	})
	if i == 0 {
		v.Set(reflect.MakeSlice(o.slice, 0, 0))
		return
	}
	v.SetLen(i)
}

func (d *decoder) int(p *int) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		var n num
		if !d.number(&n) {
			return
		}
		v, ok := n.int()
		if !ok {
			d.typeError("number "+string(n.lit), "int")
			return
		}
		*p = v
	default:
		d.mismatch("int")
	}
}

func (d *decoder) float(p *float64) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		var n num
		if !d.number(&n) {
			return
		}
		v, ok := n.float()
		if !ok {
			d.typeError("number "+string(n.lit), "float64")
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
