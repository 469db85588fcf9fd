package learned

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"abw/internal/unit"
)

// decodeWeights reads an abw-learned-weights/1 file in one pass over
// its bytes, without reflection, and yields exactly what json.Unmarshal
// into a Weights yields on every input it accepts:
//
//   - A number token must match the JSON number grammar. A float of
//     at most 19 digits, no exponent and a mantissa m <= 2⁵³ is m/10^k
//     for its k fraction digits, one correctly rounded division of exact
//     float64s, hence strconv.ParseFloat's bits; other floats go through
//     ParseFloat(tok, 64) and integers through strconv.Atoi, the
//     conversions encoding/json makes.
//   - A string with no backslash and no byte below 0x20 or at or above
//     0x80 is copied as it is; any other string token goes to
//     json.Unmarshal, so its escapes, control bytes and invalid UTF-8
//     follow encoding/json's rules.
//   - null leaves a slice nil and an object untouched; [] is an empty
//     non-nil slice; a repeated key decodes again over its field.
//
// It is stricter on purpose: keys must be spelled exactly, and unknown
// keys, null scalars and trailing bytes are refused. json.Marshal of a
// Weights produces none of those.
func decodeWeights(data []byte) (*Weights, error) {
	w := new(Weights)
	d := &decoder{data: data}
	err := d.value(map[string]any{
		"schema": &w.Schema,
		"plan": map[string]any{
			"rate_fracs":       &w.Plan.RateFracs,
			"stream_len":       &w.Plan.StreamLen,
			"pkt_size":         &w.Plan.PktSize,
			"streams_per_frac": &w.Plan.StreamsPerFrac,
		},
		"feature_names": &w.FeatureNames,
		"mean":          &w.Mean,
		"std":           &w.Std,
		"ridge": map[string]any{
			"lambda":    &w.Ridge.Lambda,
			"intercept": &w.Ridge.Intercept,
			"coef":      &w.Ridge.Coef,
		},
		"knn":   map[string]any{"k": &w.KNN.K, "x": &w.KNN.X, "y": &w.KNN.Y},
		"blend": &w.Blend,
		"note":  &w.Note,
	})
	if d.ws(); err == nil && d.off != len(d.data) {
		err = d.errorf(d.off, "trailing data")
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// decoder is a cursor over a weight file's bytes.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(at int, format string, args ...any) error {
	return fmt.Errorf("learned: parsing weights: byte %d: %s", at, fmt.Sprintf(format, args...))
}

// value decodes the next value into dst: a pointer to a Weights field,
// or an object's fields keyed by their JSON names.
func (d *decoder) value(dst any) (err error) {
	var n int
	switch p := dst.(type) {
	case map[string]any:
		err = d.object(p)
	case *string:
		*p, err = d.str()
	case *float64:
		*p, err = d.float()
	case *int:
		*p, err = d.integer()
	case *unit.Bytes:
		n, err = d.integer()
		*p = unit.Bytes(n)
	case *[]string:
		*p, err = list(d, d.str)
	case *[]float64:
		*p, err = list(d, d.float)
	case *[][]float64:
		*p, err = d.rows()
	default:
		panic(fmt.Sprintf("learned: no decoder for %T", dst))
	}
	return err
}

// object reads an object, or null, into fields.
func (d *decoder) object(fields map[string]any) error {
	if d.null() {
		return nil
	}
	if !d.consume('{') {
		return d.errorf(d.off, "want an object")
	}
	if d.consume('}') {
		return nil
	}
	for {
		at := d.off
		key, err := d.str()
		if err != nil {
			return err
		}
		dst, ok := fields[key]
		if !ok {
			return d.errorf(at, "unknown key %q", key)
		}
		if !d.consume(':') {
			return d.errorf(d.off, "want ':'")
		}
		if err := d.value(dst); err != nil {
			return err
		}
		if d.consume('}') {
			return nil
		}
		if !d.consume(',') {
			return d.errorf(d.off, "want ',' or '}'")
		}
	}
}

// array reads a non-null array, calling elem once per element.
func (d *decoder) array(elem func() error) error {
	if !d.consume('[') {
		return d.errorf(d.off, "want an array")
	}
	if d.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.consume(']') {
			return nil
		}
		if !d.consume(',') {
			return d.errorf(d.off, "want ',' or ']'")
		}
	}
}

// list reads an array of elements read by elem, or null.
func list[T any](d *decoder, elem func() (T, error)) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	out := []T{}
	err := d.array(func() error {
		v, err := elem()
		out = append(out, v)
		return err
	})
	return out, err
}

// rows reads an array of float arrays, or null, into one backing array
// sized once, cut into capped rows once the outer array closes: a few
// dozen allocations for the kNN memory instead of one per row. Each
// float but the last is followed by a comma, in its row or after it,
// so the commas left in the input bound the count.
func (d *decoder) rows() ([][]float64, error) {
	if d.null() {
		return nil, nil
	}
	flat := make([]float64, 0, bytes.Count(d.data[d.off:], []byte{','})+1)
	var ends []int // each row's end in flat; -1 for a null row
	err := d.array(func() error {
		if d.null() {
			ends = append(ends, -1)
			return nil
		}
		err := d.array(func() error {
			f, err := d.float()
			flat = append(flat, f)
			return err
		})
		ends = append(ends, len(flat))
		return err
	})
	rows := make([][]float64, len(ends))
	lo := 0
	for i, hi := range ends {
		if hi >= 0 {
			rows[i] = flat[lo:hi:hi]
			lo = hi
		}
	}
	return rows, err
}

// number reads one token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *decoder) number() ([]byte, error) {
	d.ws()
	b, start := d.data, d.off
	i := start
	digits := func() int { // the count of digits consumed
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return nil, d.errorf(start, "want a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits() == 0 {
			return nil, d.errorf(start, "want a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, d.errorf(start, "want a digit in the exponent")
		}
	}
	d.off = i
	return b[start:i], nil
}

// pow10 holds 10^0 to 10^19, each exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// float reads a number token as a float64, bit-identical to
// strconv.ParseFloat. A token -?(0|[1-9][0-9]*)(\.[0-9]+)? of at most 19
// digits, read in one pass as the integer m of its digits and its count
// k of fraction digits, is m/10^k when m <= 2⁵³: m and 10^k are exact
// float64s, so the division is the one correctly rounded step
// ParseFloat takes too, and the sign bit is set after it (-0 included).
// Nineteen digits cannot wrap m. Every other token, malformed ones
// too, goes through number and ParseFloat.
func (d *decoder) float() (float64, error) {
	d.ws()
	b, i := d.data, d.off
	var sign uint64 // the sign bit, set by a leading '-'
	if i < len(b) {
		// 1 for '-', else 0, without a branch: the file's signs are
		// as unpredictable as a coin.
		neg := (uint64(b[i]^'-') - 1) >> 63
		sign = neg << 63
		i += int(neg)
	}
	start := i
	var m uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	n := i - start // digits in m
	ok := n == 1 || n > 1 && b[start] != '0'
	k := 0
	if ok && i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		k = i - j
		n += k
		ok = k > 0
	}
	if ok && n <= 19 && m <= 1<<53 && (i == len(b) || b[i]|0x20 != 'e') {
		d.off = i
		return math.Float64frombits(math.Float64bits(float64(m)/pow10[k]) | sign), nil
	}
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf(d.off-len(tok), "%v", err)
	}
	return f, nil
}

func (d *decoder) integer() (int, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, d.errorf(d.off-len(tok), "%v", err)
	}
	return n, nil
}

func (d *decoder) str() (string, error) {
	d.ws()
	start := d.off
	if start == len(d.data) || d.data[start] != '"' {
		return "", d.errorf(start, "want a string")
	}
	plain := true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			if plain {
				return string(d.data[start+1 : i]), nil
			}
			var s string
			if err := json.Unmarshal(d.data[start:i+1], &s); err != nil {
				return "", d.errorf(start, "%v", err)
			}
			return s, nil
		case c == '\\':
			plain = false
			i++ // an escaped quote does not close the string
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return "", d.errorf(start, "unterminated string")
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	i := d.off
	for i < len(d.data) && (d.data[i] == ' ' || d.data[i] == '\n' || d.data[i] == '\t' || d.data[i] == '\r') {
		i++
	}
	d.off = i
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	if d.ws(); d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// null skips whitespace and then the literal null, reporting whether it
// was there.
func (d *decoder) null() bool {
	if d.ws(); len(d.data)-d.off >= 4 && string(d.data[d.off:d.off+4]) == "null" {
		d.off += 4
		return true
	}
	return false
}
