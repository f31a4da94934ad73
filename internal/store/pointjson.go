package store

import (
	"math"
	"strconv"
)

// appendPoint appends p's JSON encoding to dst exactly as json.Marshal
// writes it (compact) or as json.Indent re-indents that at the results
// array's depth (prefix "    ", indent "  "). It reports false, with
// dst unchanged, for a point it cannot encode that way: a NaN or ±Inf
// float (json.Marshal fails on it) or a string with a byte outside
// printable ASCII or one of `"`, `\`, `<`, `>` and `&` (json.Marshal
// escapes it). The caller falls back to encoding/json for those.
func appendPoint(dst []byte, p MeasuredPoint, compact bool) ([]byte, bool) {
	if !plainString(p.Config) || !plainString(p.Label) ||
		!finite(p.Seconds) || !finite(p.DynPowerW) || !finite(p.DynEnergyJ) {
		return dst, false
	}
	l := &pointLayouts[0]
	if compact {
		l = &pointLayouts[1]
	}
	b := append(dst, l.config...)
	b = append(b, p.Config...)
	b = append(b, l.label...)
	b = append(b, p.Label...)
	b = append(b, l.seconds...)
	b = appendFloat(b, p.Seconds)
	b = append(b, l.power...)
	b = appendFloat(b, p.DynPowerW)
	b = append(b, l.energy...)
	b = appendFloat(b, p.DynEnergyJ)
	if p.Attempts != 0 { // omitempty
		b = append(b, l.attempts...)
		b = strconv.AppendInt(b, int64(p.Attempts), 10)
	}
	return append(b, l.end...), true
}

// pointLayout holds the bytes around a MeasuredPoint's values: each
// field's opener (what closes the previous value, the field separator
// and the quoted name) and the object's close.
type pointLayout struct {
	config, label, seconds, power, energy, attempts, end string
}

// pointLayouts are the indented layout (fields one per line at the
// results array's depth) and the compact one.
var pointLayouts = [2]pointLayout{
	newPointLayout("\n      ", ": ", "\n    }"),
	newPointLayout("", ":", "}"),
}

// newPointLayout builds a layout whose fields start with lead, with
// colon after each name and end closing the object.
func newPointLayout(lead, colon, end string) pointLayout {
	name := func(prev, n string) string { return prev + lead + `"` + n + `"` + colon }
	return pointLayout{
		config:   name("{", "config") + `"`,
		label:    name(`",`, "label") + `"`,
		seconds:  name(`",`, "seconds"),
		power:    name(",", "dyn_power_w"),
		energy:   name(",", "dyn_energy_j"),
		attempts: name(",", "attempts"),
		end:      end,
	}
}

// appendFloat appends a finite float64 as encoding/json does: the
// shortest representation that round-trips, in 'e' form below 1e-6 and
// at or above 1e21 in magnitude, with a two-digit negative exponent
// shortened ("e-07" becomes "e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// plainString reports whether json.Marshal writes s verbatim between
// quotes: every byte printable ASCII and none that it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e:
			return false
		case c == '"' || c == '\\' || c == '<' || c == '>' || c == '&':
			return false
		}
	}
	return true
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
