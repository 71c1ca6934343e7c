package serve

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// textKey is the reference: the text rendering the binary keys
// replaced, "endpoint|field|field…" with each float quantized and then
// formatted in shortest 'g' form. Binary and text keys must fold
// parameters into the same classes.
type textKey struct{ b strings.Builder }

func newTextKey(endpoint string) *textKey {
	k := &textKey{}
	k.b.WriteString(endpoint)
	return k
}

func (k *textKey) str(s string)  { k.b.WriteByte('|'); k.b.WriteString(s) }
func (k *textKey) num(v float64) { k.str(strconv.FormatFloat(quantize(v), 'g', -1, 64)) }
func (k *textKey) int(v int)     { k.str(strconv.Itoa(v)) }
func (k *textKey) bool(v bool)   { k.str(strconv.FormatBool(v)) }
func (k *textKey) nums(vs []float64) {
	k.b.WriteString("|[")
	for i, v := range vs {
		if i > 0 {
			k.b.WriteByte(',')
		}
		k.b.WriteString(strconv.FormatFloat(quantize(v), 'g', -1, 64))
	}
	k.b.WriteByte(']')
}

func textKeyAllToAll(p core.Params, n int) string {
	k := newTextKey("alltoall")
	k.int(p.P)
	k.num(p.W)
	k.num(p.St)
	k.num(p.So)
	k.num(p.C2)
	k.bool(p.ProtocolProcessor)
	k.int(int(p.Priority))
	k.int(n)
	return k.b.String()
}

func textKeyGeneral(p core.GeneralParams) string {
	k := newTextKey("general")
	k.int(p.P)
	k.nums(p.W)
	for _, row := range p.V {
		k.nums(row)
	}
	k.num(p.St)
	k.nums(p.So)
	k.num(p.C2)
	k.bool(p.ProtocolProcessor)
	return k.b.String()
}

// keyNeighbour returns a float near x drawn to probe the quantization
// boundary: x itself, sub-resolution noise, one quantum away, or the two
// floats either side of a 9-digit rounding midpoint.
func keyNeighbour(r *rng.Stream, x float64) (a, b float64) {
	exp := math.Floor(math.Log10(math.Abs(x)))
	quantum := math.Pow(10, exp-8)
	switch r.Intn(5) {
	case 0:
		return x, x
	case 1:
		return x, x * (1 + 1e-12)
	case 2:
		q := quantize(x)
		return q, q + quantum
	case 3:
		mid := quantize(x) + quantum/2
		return math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1))
	default:
		mid := quantize(x) + quantum/2
		return mid, math.Nextafter(mid, math.Inf(1))
	}
}

// TestBinaryKeysMatchTextClasses: over random parameter pairs, many of
// them one quantum apart or straddling a 9-digit rounding midpoint,
// two tuples share a binary key exactly when they share a text key.
func TestBinaryKeysMatchTextClasses(t *testing.T) {
	r := rng.New(0x6b6579)
	draw := func() float64 {
		return math.Pow(10, -6+12*r.Float64()) // 1e-6 .. 1e6
	}
	var same, differ int
	check := func(textEq, binEq bool, what string) {
		if textEq != binEq {
			t.Fatalf("%s: text keys equal = %v, binary keys equal = %v", what, textEq, binEq)
		}
		if textEq {
			same++
		} else {
			differ++
		}
	}
	for i := 0; i < 20000; i++ {
		var a, b core.Params
		a.P, b.P = 32, 32
		for _, f := range []func(p *core.Params) *float64{
			func(p *core.Params) *float64 { return &p.W },
			func(p *core.Params) *float64 { return &p.St },
			func(p *core.Params) *float64 { return &p.So },
			func(p *core.Params) *float64 { return &p.C2 },
		} {
			*f(&a), *f(&b) = keyNeighbour(r, draw())
		}
		ka := routeKey("/v1/alltoall", &allToAllParams{Params: a})
		kb := routeKey("/v1/alltoall", &allToAllParams{Params: b})
		check(textKeyAllToAll(a, 0) == textKeyAllToAll(b, 0), ka == kb, "alltoall "+textKeyAllToAll(a, 0)+" vs "+textKeyAllToAll(b, 0))

		const n = 3
		ga := core.GeneralParams{P: n, V: core.HomogeneousVisits(n), St: 40, So: []float64{200}}
		gb := core.GeneralParams{P: n, V: core.HomogeneousVisits(n), St: 40, So: []float64{200}}
		for j := 0; j < n; j++ {
			wa, wb := keyNeighbour(r, draw())
			ga.W, gb.W = append(ga.W, wa), append(gb.W, wb)
		}
		check(textKeyGeneral(ga) == textKeyGeneral(gb),
			routeKey("/v1/general", &ga) == routeKey("/v1/general", &gb),
			"general "+textKeyGeneral(ga)+" vs "+textKeyGeneral(gb))
	}
	if same == 0 || differ == 0 {
		t.Fatalf("degenerate draw: %d equal pairs, %d distinct pairs", same, differ)
	}
	t.Logf("%d pairs shared a key, %d did not", same, differ)
}

// perturbLeaf changes the n-th number or bool reachable from v — struct
// fields in order, every slice element — by far more than the key's
// resolution, and reports whether v has that many. n counts down.
func perturbLeaf(t *testing.T, v reflect.Value, n *int) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if perturbLeaf(t, v.Field(i), n) {
				return true
			}
		}
		return false
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if perturbLeaf(t, v.Index(i), n) {
				return true
			}
		}
		return false
	}
	if *n > 0 {
		*n--
		return false
	}
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*1.01 + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("no perturbation for a %s field: extend perturbLeaf", v.Type())
	}
	return true
}

// growSlice appends one zero element to the n-th slice reachable from v
// and reports whether v has that many.
func growSlice(v reflect.Value, n *int) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if growSlice(v.Field(i), n) {
				return true
			}
		}
	case reflect.Slice:
		if *n == 0 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return true
		}
		*n--
		for i := 0; i < v.Len(); i++ {
			if growSlice(v.Index(i), n) {
				return true
			}
		}
	}
	return false
}

// TestKeyFieldPerturbation: changing any single parameter of any route
// in the table — every field of its params struct, found by reflection
// so a field added later is covered too, every element of every list,
// and every list's length — changes the key.
func TestKeyFieldPerturbation(t *testing.T) {
	for _, e := range solveRoutes {
		info := e.info()
		t.Run(strings.TrimPrefix(info.path, "/v1/"), func(t *testing.T) {
			fresh := func() any { return sampleParams(t, e) } // a new, unshared base value
			key := func(v any) string { return string(e.(testRoute).keyOf(new(keyWriter), v)) }
			base := key(fresh())
			for _, m := range []struct {
				what  string
				apply func(v reflect.Value, n *int) bool
			}{
				{"value", func(v reflect.Value, n *int) bool { return perturbLeaf(t, v, n) }},
				{"length", growSlice},
			} {
				for i := 0; ; i++ {
					v := fresh()
					n := i
					if !m.apply(reflect.ValueOf(v).Elem(), &n) {
						break
					}
					if key(v) == base {
						t.Errorf("%s perturbation %d (%+v) left the key unchanged", m.what, i, v)
					}
				}
			}
		})
	}
}

// quantizeLog10 is the oracle TestQuantizeMatchesLog10 holds quantize
// to: the same rounding with the decimal exponent taken from
// math.Log10 for every value.
func quantizeLog10(v float64) float64 {
	//lopc:allow floateq zero is an exact sentinel: only literal 0 has no magnitude to take the log of
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	exp := int(math.Floor(math.Log10(math.Abs(v))))
	scale := pow10[8-exp-pow10Min]
	if math.IsInf(scale, 0) {
		return v
	}
	q := math.Round(v*scale) / scale
	//lopc:allow floateq exactly-zero or infinite q means the scaling over/underflowed at the float64 edges; keep v
	if q == 0 || math.IsInf(q, 0) {
		return v
	}
	return q
}

// TestQuantizeMatchesLog10: quantize, which takes its decimal exponent
// from the float's binary one, keys every float exactly as the Log10
// oracle does. Drawn: random bit patterns, every decade, the four
// neighbours either side of each power of ten from 1e-300 to 1e300,
// and points at relative distances 1e-16 to 1e-9 from each, where
// math.Log10's rounding decides the exponent.
func TestQuantizeMatchesLog10(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		for _, x := range []float64{v, -v} {
			if got, want := quantize(x), quantizeLog10(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("quantize(%v) = %v, Log10 oracle %v", x, got, want)
			}
		}
	}
	r := rng.New(0x71756e74)
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(r.Uint64()))
	}
	for k := -324; k <= 308; k++ {
		p := math.Pow(10, float64(k))
		check(p)
		up, down := p, p
		for i := 0; i < 4; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			check(up)
			check(down)
		}
		if k < -300 || k > 300 {
			continue
		}
		for e := -16.0; e <= -9; e += 0.125 {
			d := math.Pow(10, e)
			check(p * (1 + d))
			check(p * (1 - d))
		}
	}
}
