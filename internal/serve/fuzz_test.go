package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// FuzzRequestDecoding throws arbitrary bytes at the request-decoding
// path of every POST endpoint: the server must never panic, must answer
// only statuses from the documented taxonomy, and must wrap every
// non-2xx answer in the JSON error envelope.
func FuzzRequestDecoding(f *testing.F) {
	f.Add("/v1/alltoall", validAllToAll)
	f.Add("/v1/alltoall", `{"p":32,`)
	f.Add("/v1/alltoall", `{"p":32,"w":1000,"so":200,"bogus":1}`)
	f.Add("/v1/alltoall", validAllToAll+`{"again":true}`)
	f.Add("/v1/alltoall", `{"p":32,"w":1e999,"so":200}`)
	f.Add("/v1/alltoall", `{"p":-1,"w":-2,"st":-3,"so":-4,"c2":-5,"n":-6}`)
	f.Add("/v1/alltoall", `{"p":32,"w":1000,"so":200,"priority":"zz"}`)
	f.Add("/v1/workpile", `{"p":32,"ps":8,"w":1500,"st":40,"so":131}`)
	f.Add("/v1/bounds", `{"p":32,"ps":0,"w":1500,"so":131}`)
	f.Add("/v1/general", `{"p":2,"w":[1,1],"v":[[0,1],[1,0]],"so":[5]}`)
	// Each branch of the one-pass number read: the exact path, the
	// Eisel–Lemire path, a truncated 25-digit mantissa, -0, the strconv
	// fallback (1e999), and ints spelled as floats.
	f.Add("/v1/general", `{"p":2,"w":[1.4285714285714285e-1,1E+2],"v":[[-0.0,1],[0.1428571428571428571428571,0]],"so":[5]}`)
	f.Add("/v1/general", `{"p":2,"w":[1,1e999],"v":[[0,1],[1,0]],"so":[5]}`)
	f.Add("/v1/general", `{"p":1e2,"w":[1,1],"v":[[0,1],[1,0]],"so":[5]}`)
	f.Add("/v1/alltoall", `{"p":1.5,"w":1000,"so":200}`)
	f.Add("/v1/fit", `{"p":16,"observations":[{"w":0,"r":900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`)
	f.Add("/v1/sweep", `{"points":[`+validAllToAll+`],"jobs":2}`)
	f.Add("/v1/sweep", `{"points":[],"jobs":-9}`)
	f.Add("/metrics", "")
	f.Add("/nowhere", "{}")

	s := New(Config{Workers: 2, QueueDepth: 4, MaxSweepPoints: 16})
	h := s.Handler()
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusNotFound: true,
		// ServeMux 301-redirects non-canonical paths (e.g. "/..").
		http.StatusMovedPermanently: true, http.StatusPermanentRedirect: true,
		http.StatusBadRequest: true, http.StatusMethodNotAllowed: true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusUnprocessableEntity:   true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}
	f.Fuzz(func(t *testing.T, path, body string) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		for _, r := range path {
			if r <= ' ' || r == 0x7f {
				t.Skip("control characters in the target make NewRequest itself panic")
			}
		}
		if _, err := url.ParseRequestURI(path); err != nil {
			t.Skip("not a parseable request target") // NewRequest would panic on it
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		if !allowed[rec.Code] {
			t.Fatalf("POST %q %q answered undocumented status %d: %s",
				path, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 400 && rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed &&
			strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Fatalf("status %d without error envelope: %s", rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// decodeTarget is one request type the /v1 endpoints decode: decode
// reads a body into a fresh value of it with the server's reader,
// reference with encoding/json, and reused reads body b into a value
// that held body a and was then reset, as a pooled request is.
type decodeTarget struct {
	name              string
	decode, reference func(body []byte) (any, error)
	reused            func(a, b []byte) (any, error)
}

func target[T any](name string) decodeTarget {
	pl := newRequestPlan[T]()
	return decodeTarget{
		name:      name,
		decode:    func(body []byte) (any, error) { v := new(T); return v, decodeBody(body, pl, v) },
		reference: func(body []byte) (any, error) { v := new(T); return v, referenceDecode(body, v) },
		reused: func(a, b []byte) (any, error) {
			v := new(T)
			_ = decodeBody(a, pl, v)
			pl.clr.reset(unsafe.Pointer(v))
			return v, decodeBody(b, pl, v)
		},
	}
}

var decodeTargets = []decodeTarget{
	target[alltoallRequest]("alltoall"),
	target[workpileRequest]("workpile"),
	target[generalRequest]("general"),
	target[fitRequest]("fit"),
	target[sweepRequest]("sweep"),
	target[lockRequest]("lock"),
	target[whatifRequest]("whatif"),
}

// decodeBody runs the server's decoder over body as decodeRequest does.
func decodeBody[T any](body []byte, pl *requestPlan[T], dst *T) error {
	d := decoderPool.Get().(*decoder)
	defer d.free()
	if err := d.load(bytes.NewReader(body)); err != nil {
		return err
	}
	return pl.decode(d, dst)
}

// referenceDecode is the decoding the server's reader replaces:
// encoding/json with unknown fields disallowed, then a second Decode
// that must find nothing but the end of the input.
func referenceDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return errTrailing
	}
	return nil
}

// decodeCorpus seeds the decoding fuzzers: FuzzRequestDecoding's
// bodies plus the corners of encoding/json's behaviour.
var decodeCorpus = []string{
	// FuzzRequestDecoding's corpus.
	validAllToAll,
	`{"p":32,`,
	`{"p":32,"w":1000,"so":200,"bogus":1}`,
	validAllToAll + `{"again":true}`,
	`{"p":32,"w":1e999,"so":200}`,
	`{"p":-1,"w":-2,"st":-3,"so":-4,"c2":-5,"n":-6}`,
	`{"p":32,"w":1000,"so":200,"priority":"zz"}`,
	`{"p":32,"ps":8,"w":1500,"st":40,"so":131}`,
	`{"p":32,"ps":0,"w":1500,"so":131}`,
	`{"p":2,"w":[1,1],"v":[[0,1],[1,0]],"so":[5]}`,
	`{"p":16,"observations":[{"w":0,"r":900},{"w":512,"r":1400},{"w":2048,"r":2950}]}`,
	`{"points":[` + validAllToAll + `],"jobs":2}`,
	`{"points":[],"jobs":-9}`,
	"",
	"{}",
	// Whole-document shapes.
	"null", " \t\r\n{} \n", "[]", `"x"`, "1", "true", "{} {}", "{}x", "{}}", "\ufeff{}",
	// Keys: case folding, escapes, Unicode folds (ſ is s, K is k).
	`{"P":32,"W":1,"Protocol_Processor":true}`,
	"{\"p\":32,\"\u212a\":1}", `{"\u0070":32,"s\u006f":1}`,
	"{\"\u017fo\":1,\"\u017ft\":2}", `{"\u017fo":1}`,
	`{"threads":1,"THREADS":2}`,
	`{"add_servers":1,"Add_Servers":2,"scale_w":0.5}`,
	// null, repeated keys and slice reuse.
	`{"p":3,"p":null,"priority":null,"protocol_processor":null}`,
	`{"w":[1,2],"w":[null]}`,
	`{"w":[1,2,3],"w":[null],"w":[null,null,null]}`,
	`{"w":[1,2,3,4,5,6,7,8,9],"w":[],"w":[null]}`,
	`{"v":[[1,2],[3]],"v":[[null],null]}`,
	`{"so":null,"so":[null]}`,
	`{"observations":[{"w":1,"r":2,"rq":3}],"observations":[{"w":5}]}`,
	`{"observations":[null,{}]}`,
	`{"points":[{"p":1,"n":3}],"points":[{"w":2}],"jobs":null}`,
	// A null element first: it must read as zero in a reused value too.
	`{"w":[null,2],"so":[null]}`, `{"v":[[null,1],[null]]}`,
	`{"points":[null,{"w":1}],"observations":[{"r":1},null]}`,
	// Numbers.
	`{"p":1.5}`, `{"p":1e2}`, `{"p":-0}`, `{"p":9223372036854775808}`, `{"p":-9223372036854775808}`,
	`{"w":-1e-400}`, `{"w":1E+2}`, `{"w":.5}`, `{"w":-}`, `{"w":1.}`, `{"w":1e}`, `{"w":01}`,
	`{"w":Infinity}`, `{"w":NaN}`, `{"w":0x10}`, `{"w":1_000}`, `{"w":+1}`,
	// Each branch of the one-pass number read.
	`{"w":1.4285714285714285e-1}`, `{"w":-0.0}`, `{"so":[-0.0,1E+2]}`,
	`{"v":[[0.1428571428571428571428571]]}`, `{"v":[[1e999]]}`, `{"w":[1e-999,1e2]}`,
	`{"p":-1e2}`, `{"p":123456789012345678}`, `{"jobs":1.0}`,
	// Kinds a field cannot hold.
	`{"p":"1"}`, `{"p":true}`, `{"p":[1]}`, `{"p":{}}`, `{"w":[1,"x",3]}`,
	`{"priority":1}`, `{"protocol_processor":"true"}`, `{"v":[1]}`, `{"observations":{}}`,
	// Literals and strings.
	`{"priority":"shadow"}`, `{"priority":"\ud800"}`, "{\"priority\":\"\xff\"}",
	`{"priority":"a\/b\"\\\b\f\n\r\t"}`, `{"priority":"\x"}`, `{"priority":"\u12"}`,
	"{\"priority\":\"a\tb\"}", `{"protocol_processor":tru}`, `{"p":nul}`, `{"p":nullx}`,
	// Syntax around members.
	`{"p":1,}`, `{,}`, `{"p" 1}`, `{"p":1 "w":2}`, `{p:1}`, `{"p":[}`, `{"bogus":{"a":[1,{"b":null}]}}`,
	// Nesting at and past encoding/json's depth limit.
	`{"bogus":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"bogus":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzDecodeMatchesEncodingJSON decodes every body as each request type
// with both the server's reader and encoding/json: they must agree on
// accepting it, on whether a rejection is trailing data, and on the
// decoded struct. Seeded with FuzzRequestDecoding's bodies plus the
// corners of the reference's behaviour.
func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, target := range decodeTargets {
			got, errGot := target.decode(body)
			want, errWant := target.reference(body)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s %q: reader error %v, encoding/json error %v", target.name, body, errGot, errWant)
			}
			if errors.Is(errGot, errTrailing) != errors.Is(errWant, errTrailing) {
				t.Fatalf("%s %q: reader error %v, encoding/json error %v", target.name, body, errGot, errWant)
			}
			if errGot == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q: reader decoded %+v, encoding/json %+v", target.name, body, got, want)
			}
		}
	})
}

// reuseFill is a body that sets every field of every request type, with
// slices longer than most seeds', so decoding into its reset remains
// finds elements and capacity to reuse.
const reuseFill = `{"p":3,"ps":2,"w":[1,2,3,4,5,6,7,8,9],"v":[[1,2,3],[4,5],[6],[7,8,9,10]],"st":4,` +
	`"so":[5,6,7],"c2":0.5,"protocol_processor":true,"priority":"shadow","n":7,"threads":4,` +
	`"observations":[{"w":1,"r":2,"rq":3},{"w":4,"r":5,"rq":6}],` +
	`"points":[{"p":1,"w":2,"n":3,"priority":"bkt","protocol_processor":true},{"so":4}],"jobs":5,` +
	`"servers":2,"add_servers":1,"scale_w":0.5}`

// FuzzDecodeReusedMatchesFresh: a request value that held body a and
// was then reset decodes body b to the same value, and the same error,
// as a fresh one does.
func FuzzDecodeReusedMatchesFresh(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(reuseFill), []byte(body))
		f.Add([]byte(body), []byte(reuseFill))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, target := range decodeTargets {
			got, errGot := target.reused(a, b)
			want, errWant := target.decode(b)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("%s %q after %q: reused error %v, fresh error %v", target.name, b, a, errGot, errWant)
			}
			if errGot == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q after %q: reused decoded %+v, fresh %+v", target.name, b, a, got, want)
			}
		}
	})
}
