package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referencePoint is the encoding appendPoint replaces: json.Marshal,
// re-indented at the results array's depth unless compact.
func referencePoint(p MeasuredPoint, compact bool) ([]byte, error) {
	data, err := json.Marshal(p)
	if err != nil || compact {
		return data, err
	}
	var buf bytes.Buffer
	err = json.Indent(&buf, data, "    ", "  ")
	return buf.Bytes(), err
}

// randomFloat draws from the float shapes the encoder distinguishes:
// arbitrary bit patterns (subnormals, NaN and ±Inf included), values
// next to the 1e-6 and 1e21 format switches, zeros, and measurement-like
// magnitudes.
func randomFloat(rng *rand.Rand) float64 {
	edges := []float64{1e-6, 1e21, 1e-7, 1e20, 1e-5, 5e-324, math.SmallestNonzeroFloat64 * 3, 0x1p-1022, math.MaxFloat64}
	switch rng.Intn(12) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		f := edges[rng.Intn(len(edges))]
		for n := rng.Intn(3); n > 0; n-- {
			f = math.Nextafter(f, math.Inf(2*rng.Intn(2)-1))
		}
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	case 2:
		return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
	case 3:
		return math.Ldexp(rng.Float64(), rng.Intn(2200)-1100)
	default:
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
}

// randomString draws keys and labels: mostly plain ASCII, sometimes
// with characters json.Marshal escapes or that are not ASCII.
func randomString(rng *rand.Rand) string {
	const plain = "abcxyzBSGR0123456789=/(), .-_pt"
	special := []string{`"`, `\`, "<", ">", "&", "\x00", "\n", "\x7f", "é", "\u2028", "\xff", "日本"}
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		if rng.Intn(200) == 0 {
			b.WriteString(special[rng.Intn(len(special))])
		} else {
			b.WriteByte(plain[rng.Intn(len(plain))])
		}
	}
	return b.String()
}

// TestAppendPointMatchesEncodingJSON: over random points, appendPoint
// either writes exactly json.Marshal's bytes (re-indented as the
// indented record nests them) or declines — and it declines only the
// points json.Marshal fails on or whose strings it escapes.
func TestAppendPointMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 120000
	declined := 0
	for i := 0; i < n; i++ {
		p := MeasuredPoint{
			Config:     randomString(rng),
			Label:      randomString(rng),
			Seconds:    randomFloat(rng),
			DynPowerW:  randomFloat(rng),
			DynEnergyJ: randomFloat(rng),
		}
		if rng.Intn(2) == 0 {
			p.Attempts = rng.Intn(5) - 1
		}
		compact := i%2 == 0
		want, werr := referencePoint(p, compact)
		got, ok := appendPoint([]byte("x"), p, compact)
		if !ok {
			declined++
			if string(got) != "x" {
				t.Fatalf("declined point %+v changed dst to %q", p, got)
			}
			plain := plainString(p.Config) && plainString(p.Label)
			if werr == nil && plain {
				t.Fatalf("declined encodable point %+v (want %s)", p, want)
			}
			continue
		}
		if werr != nil {
			t.Fatalf("encoded %+v, which json.Marshal rejects: %v", p, werr)
		}
		if !bytes.Equal(got[1:], want) {
			t.Fatalf("point %+v (compact %v):\n got: %s\nwant: %s", p, compact, got[1:], want)
		}
	}
	if declined == 0 || declined > n/2 {
		t.Errorf("declined %d of %d points: the draw does not cover both paths", declined, n)
	}
}

// TestWritePointFallbackMatchesEncodingJSON: a point the appender
// declines still reaches the record through encoding/json, so a
// non-finite value fails exactly as before and an escaped string is
// written escaped.
func TestWritePointFallbackMatchesEncodingJSON(t *testing.T) {
	for _, compact := range []bool{false, true} {
		rec := identityCases()[0]
		rec.Results = append(rec.Results, MeasuredPoint{Config: "a<b", Label: "(é & \"q\")", Seconds: 2, DynPowerW: 1e-7, DynEnergyJ: 1e21, Attempts: 2})
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if !compact {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
		if got := streamRecord(t, rec, compact); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("compact %v:\n got: %s\nwant: %s", compact, got, want.Bytes())
		}

		var buf bytes.Buffer
		cw, err := NewCampaignWriter(&buf, rec.Device, rec.Kind, rec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if compact {
			cw.Compact()
		}
		_, werr := json.Marshal(MeasuredPoint{Config: "k", Seconds: 1, DynPowerW: math.NaN(), DynEnergyJ: 1})
		err = cw.WritePoint(MeasuredPoint{Config: "k", Seconds: 1, DynPowerW: math.NaN(), DynEnergyJ: 1})
		if err == nil || werr == nil || !strings.Contains(err.Error(), werr.Error()) {
			t.Errorf("NaN point: error %v, want one wrapping %v", err, werr)
		}
		if cw.Err() == nil {
			t.Error("NaN point error is not sticky")
		}
	}
}

// TestWritePointReusesScratch: in steady state a point's encoding
// allocates nothing of its own.
func TestWritePointReusesScratch(t *testing.T) {
	cw, err := NewCampaignWriter(&bytes.Buffer{}, "Tesla P100", "gpu", identityCases()[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	cw.Compact()
	p := MeasuredPoint{Label: "(BS=24, G=1, R=8)", Seconds: 0.123456789, DynPowerW: 150.25, DynEnergyJ: 18.5, Attempts: 1}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = "bs=" + strings.Repeat("1", i%7+1) + "/g=1/r=" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	i := 0
	write := func() {
		p.Config = keys[i]
		i++
		if err := cw.WritePoint(p); err != nil {
			t.Fatal(err)
		}
	}
	write()
	// The seen-set map may grow; the encoding itself must not allocate.
	if n := testing.AllocsPerRun(100, write); n > 1 {
		t.Errorf("WritePoint allocates %.1f times per point", n)
	}
}
