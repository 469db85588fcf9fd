package learned

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"abw/internal/rng"
)

// oracle is the reference decoder: encoding/json's reflection into a
// Weights, which decodeWeights must reproduce on every input it
// accepts.
func oracle(data []byte) (*Weights, error) {
	w := new(Weights)
	err := json.Unmarshal(data, w)
	return w, err
}

// sameBits reports whether a and b are deeply equal with every float64
// compared by its bits, so -0 and +0 differ where reflect.DeepEqual
// calls them equal. A nil and an empty slice differ, as under DeepEqual.
func sameBits(a, b *Weights) bool {
	var same func(a, b reflect.Value) bool
	same = func(a, b reflect.Value) bool {
		switch a.Kind() {
		case reflect.Float64:
			return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
		case reflect.Pointer:
			return a.IsNil() == b.IsNil() && (a.IsNil() || same(a.Elem(), b.Elem()))
		case reflect.Struct:
			for i := 0; i < a.NumField(); i++ {
				if !same(a.Field(i), b.Field(i)) {
					return false
				}
			}
			return true
		case reflect.Slice:
			if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
				return false
			}
			for i := 0; i < a.Len(); i++ {
				if !same(a.Index(i), b.Index(i)) {
					return false
				}
			}
			return true
		default:
			return a.Equal(b)
		}
	}
	return same(reflect.ValueOf(a), reflect.ValueOf(b))
}

func TestParseMatchesJSON(t *testing.T) {
	got, err := Parse(embeddedWeights)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle(embeddedWeights)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("embedded weights: decoder and encoding/json differ")
	}

	X, y := trainCase()
	names := []string{"x0", "x1", "const"}
	trained, err := Train(X, y, TrainConfig{Plan: testPlan(), FeatureNames: names, Note: "seed=1"})
	if err != nil {
		t.Fatal(err)
	}
	thinned, err := Train(X, y, TrainConfig{MaxKNNRows: 7, Blend: 1, Plan: testPlan(), FeatureNames: names})
	if err != nil {
		t.Fatal(err)
	}
	handBuilt := func() *Weights {
		return &Weights{
			Schema: WeightsSchema, Plan: testPlan(),
			FeatureNames: []string{"x"},
			Mean:         []float64{-0.5}, Std: []float64{2.5e-7},
			Ridge: Ridge{Lambda: 100, Intercept: 0.571498, Coef: []float64{1e21}},
			Blend: 1,
		}
	}
	ridgeOnly := handBuilt() // nil kNN: marshals as "x": null, "y": null
	empty := handBuilt()
	empty.FeatureNames = []string{}
	empty.KNN = KNN{K: 3, X: [][]float64{}, Y: []float64{}}
	note := handBuilt()
	note.Note = `<>&, "quoted", naïve café, 日本, 😀`

	for name, w := range map[string]*Weights{
		"trained": trained, "thinned": thinned, "ridge-only": ridgeOnly, "empty": empty, "note": note,
	} {
		compact, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(w, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		for form, data := range map[string][]byte{"Marshal": compact, "MarshalIndent": indented} {
			got, err := Parse(data)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, form, err)
			}
			want, err := oracle(data)
			if err != nil {
				t.Fatalf("%s/%s: encoding/json: %v", name, form, err)
			}
			if !sameBits(got, want) {
				t.Errorf("%s/%s: decoder %+v, encoding/json %+v", name, form, got, want)
			}
			if !sameBits(got, w) {
				t.Errorf("%s/%s: round trip %+v, want %+v", name, form, got, w)
			}
		}
	}
}

// TestDecoderRefuses pins the inputs the decoder refuses: the ones
// encoding/json refuses too, and the ones it is stricter on.
func TestDecoderRefuses(t *testing.T) {
	for _, data := range []string{
		string(embeddedWeights) + " {}", // trailing bytes
		`{"plan": {"stream_len": 1.5}}`, // integer fields take integers
		`{"plan": {"stream_len": 1e2}}`,
		`{"plan": {"stream_len": 99999999999999999999}}`,
		`{"Schema": "abw-learned-weights/1"}`,         // stricter: keys are exact
		`{"schema": "abw-learned-weights/1", "x": 1}`, // stricter: no unknown keys
		`{"mean": [null]}`,                            // stricter: no null scalars
	} {
		if _, err := decodeWeights([]byte(data)); err == nil {
			t.Errorf("%.60s: accepted", data)
		}
	}
}

// FuzzParseMatchesJSON checks the decoder against encoding/json:
// whatever it accepts, encoding/json accepts too, with an identical
// result.
func FuzzParseMatchesJSON(f *testing.F) {
	seeds := []string{
		`{"schema":"abw-learned-weights/1","plan":{"rate_fracs":[0.5],"stream_len":20,"pkt_size":1000,"streams_per_frac":1},` +
			`"feature_names":["a","b"],"mean":[0,1],"std":[1,2],"ridge":{"lambda":1,"intercept":0.5,"coef":[0.1,-0.2]},` +
			`"knn":{"k":1,"x":[[1,2],[3e-1,-4.5E+2]],"y":[0.2,0.4]},"blend":0.3,"note":"n"}`,
		`{"plan":null,"ridge":null,"mean":null,"feature_names":null,"knn":{"x":[null,[],[1]],"y":null}}`,
		`null`,
		`{"mean":[1,2],"mean":[3],"plan":{"stream_len":5},"plan":{"pkt_size":7},"plan":null,"knn":{"x":[[1,2]]},"knn":{"x":[[]]}}`,
		"{\"note\":\"a\xffb\"}",
		"{\"note\":\"a\x01b\"}",
		`{"note":"\u003c\ud83d\ude00<", "feature_names":["\ud800", "😀"]}`,
	}
	for _, num := range []string{
		"01", "+1", "1.", ".5", "-0", "1e999", "0x1p3", "NaN", "Infinity",
		// The edges of the decoder's exact fast path: 15 and 16
		// significant digits, 2^53 and 2^53+1, 19 and 20 digits, 2^64
		// (which wraps a uint64 to 0), 22 and 23 fraction digits, signed
		// zeros, and exponents, which always take the slow path.
		"123456789012345", "1234567890123456", "0.123456789012345", "0.1234567890123456",
		"9007199254740992", "-9007199254740992", "9007199254740993", "-9007199254740993",
		"0.000000000000000001", "0.0000000000000000001", "18446744073709551616", "18446744073709551616.5",
		"0.0000000000000000000001", "0.00000000000000000000001", "-0.0000000123456789012345",
		"-0.0", "0.000000", "00.5", "1e5", "1E-7", "4.9e-324",
	} {
		seeds = append(seeds, fmt.Sprintf(`{"blend": %s}`, num), fmt.Sprintf(`{"knn": {"k": %s}}`, num))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeWeights(data)
		if err != nil {
			return
		}
		want, err := oracle(data)
		if err != nil {
			t.Fatalf("%q: decoder accepted, encoding/json refused: %v", data, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%q: decoder %+v, encoding/json %+v", data, got, want)
		}
	})
}

// TestFloatMatchesParseFloat draws number tokens from the JSON grammar
// and requires the decoder to read each bit-identically to
// strconv.ParseFloat, or to refuse it where ParseFloat does (out of
// range). Each token, mutated out of the grammar, must then be refused
// in a float field, as encoding/json refuses it.
func TestFloatMatchesParseFloat(t *testing.T) {
	r := rng.New(1)
	var sb strings.Builder
	digits := func(n int) {
		for ; n > 0; n-- {
			sb.WriteByte('0' + byte(r.Intn(10)))
		}
	}
	// Each mutation gets a token split into its sign and the rest.
	mutations := []func(sign, body string) string{
		func(sign, body string) string { return "+" + sign + body },
		func(_, body string) string { return "--" + body },
		func(sign, body string) string { return sign + body + "." },
		func(sign, body string) string { return sign + body + "e" },
		func(sign, body string) string { return sign + "0" + body },                           // a leading zero
		func(sign, body string) string { return sign + strings.TrimLeft(body, "0123456789") }, // no integer part
	}
	for i := 0; i < 100_000; i++ {
		sb.Reset()
		if r.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		if n := r.Intn(19); n == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1' + byte(r.Intn(9)))
			digits(n - 1)
		}
		if r.Intn(2) == 0 {
			sb.WriteByte('.')
			digits(1 + r.Intn(26))
		}
		if r.Intn(4) == 0 {
			sb.WriteByte("eE"[r.Intn(2)])
			sb.WriteString([]string{"", "+", "-"}[r.Intn(3)])
			digits(1 + r.Intn(3))
		}
		tok := sb.String()

		d := &decoder{data: []byte(tok)}
		got, err := d.float()
		want, wantErr := strconv.ParseFloat(tok, 64)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("%s: decoded %g, ParseFloat refused: %v", tok, got, wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("%s: refused (%v), ParseFloat read %g", tok, err, want)
		case wantErr == nil && (math.Float64bits(got) != math.Float64bits(want) || d.off != len(tok)):
			t.Fatalf("%s: decoded %g (bits %#x) ending at byte %d, ParseFloat %g (bits %#x)",
				tok, got, math.Float64bits(got), d.off, want, math.Float64bits(want))
		}

		body := strings.TrimPrefix(tok, "-")
		bad := mutations[r.Intn(len(mutations))](tok[:len(tok)-len(body)], body)
		doc := []byte(`{"blend": ` + bad + `}`)
		if _, err := oracle(doc); err == nil {
			t.Fatalf("mutation %q of %q is inside the grammar", bad, tok)
		}
		if _, err := decodeWeights(doc); err == nil {
			t.Fatalf("%q: accepted, encoding/json refuses it", bad)
		}
	}
}

// TestParseAllocationCount pins what Parse costs on the embedded file:
// a fixed handful of allocations, and the kNN memory in one slab sized
// once. Regrowing the slab by doubling took 3.2 MB a call.
func TestParseAllocationCount(t *testing.T) {
	const maxAllocs, maxBytes = 113, 1_600_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := Parse(embeddedWeights); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more, as a warm-up.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if allocs > maxAllocs {
		t.Errorf("Parse makes %.0f allocations a call, want at most %d", allocs, maxAllocs)
	}
	if perCall >= maxBytes {
		t.Errorf("Parse allocates %d bytes a call, want under %d", perCall, maxBytes)
	}
}

var parsedSink *Weights

// BenchmarkParse is the learned.weights_load rung on the embedded file:
// the displaced path (encoding/json, then validate) against Parse.
func BenchmarkParse(b *testing.B) {
	for _, bc := range []struct {
		name  string
		parse func([]byte) (*Weights, error)
	}{
		{"encoding-json", func(data []byte) (*Weights, error) {
			w, err := oracle(data)
			if err != nil {
				return nil, err
			}
			return w, w.validate()
		}},
		{"decoder", Parse},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(embeddedWeights)))
			for i := 0; i < b.N; i++ {
				w, err := bc.parse(embeddedWeights)
				if err != nil {
					b.Fatal(err)
				}
				parsedSink = w
			}
		})
	}
}
