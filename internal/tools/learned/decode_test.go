package learned

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// oracle is the reference decoder: encoding/json's reflection into a
// Weights, which decodeWeights must reproduce on every input it
// accepts.
func oracle(data []byte) (*Weights, error) {
	w := new(Weights)
	err := json.Unmarshal(data, w)
	return w, err
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
	if !reflect.DeepEqual(got, want) {
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
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: decoder %+v, encoding/json %+v", name, form, got, want)
			}
			if !reflect.DeepEqual(got, w) {
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
	for _, num := range []string{"01", "+1", "1.", ".5", "-0", "1e999", "0x1p3", "NaN", "Infinity"} {
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
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoder %+v, encoding/json %+v", data, got, want)
		}
	})
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
