package dsa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// JSONFloats is []float64 that survives JSON. encoding/json rejects
// NaN and ±Inf, but a domain's ScoreSlice may legitimately produce
// them (a diverging measure, a 0/0 ratio), so every JSON surface that
// carries score vectors — checkpoint manifest records (internal/job) and
// the grid wire (internal/grid) — encodes non-finite values as the
// same canonical tokens the CSV codec uses: "NaN", "+Inf", "-Inf".
type JSONFloats []float64

func (f JSONFloats) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range f {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case math.IsNaN(v):
			b.WriteString(`"NaN"`)
		case math.IsInf(v, 1):
			b.WriteString(`"+Inf"`)
		case math.IsInf(v, -1):
			b.WriteString(`"-Inf"`)
		default:
			num, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			b.Write(num)
		}
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

func (f *JSONFloats) UnmarshalJSON(raw []byte) error {
	var mixed []json.RawMessage
	if err := json.Unmarshal(raw, &mixed); err != nil {
		return err
	}
	out := make([]float64, len(mixed))
	for i, m := range mixed {
		if err := json.Unmarshal(m, &out[i]); err == nil {
			continue
		}
		var s string
		if err := json.Unmarshal(m, &s); err != nil {
			return fmt.Errorf("dsa: value %d is neither a number nor a token: %s", i, m)
		}
		switch s {
		case "NaN":
			out[i] = math.NaN()
		case "+Inf":
			out[i] = math.Inf(1)
		case "-Inf":
			out[i] = math.Inf(-1)
		default:
			return fmt.Errorf("dsa: unknown score token %q at index %d", s, i)
		}
	}
	*f = out
	return nil
}
