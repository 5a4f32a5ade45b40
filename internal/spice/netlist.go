package spice

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseNetlist reads a SPICE-style text deck and builds a Circuit. The
// supported subset covers everything the neuron circuits need:
//
//   - comment                      (also ; and // comments)
//     R<name> n+ n- value
//     C<name> n+ n- value
//     V<name> n+ n- DC value
//     V<name> n+ n- PULSE(lo hi delay rise fall width period)
//     V<name> n+ n- SIN(offset amp freq [delay])
//     V<name> n+ n- PWL(t1 v1 t2 v2 ...)
//     I<name> n+ n- DC value | PULSE(...) | SPIKE(amp width period [delay])
//     M<name> d g s nmos|pmos W=value L=value
//     E<name> p n cp cn gain
//     U<name> in+ in- out [GAIN=value] [LO=value] [HI=value]   (op-amp)
//     .end                           (optional, stops parsing)
//
// Values accept engineering suffixes (f p n u m k meg g t) and are
// case-insensitive, as in SPICE. Node "0" (or "gnd") is ground.
func ParseNetlist(src string) (*Circuit, error) {
	c := New()
	scanner := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		lower := strings.ToLower(line)
		if strings.HasPrefix(lower, ".end") {
			break
		}
		if strings.HasPrefix(lower, ".") {
			return nil, fmt.Errorf("spice: line %d: unsupported directive %q", lineNo, firstField(line))
		}
		if err := parseCard(c, line); err != nil {
			return nil, fmt.Errorf("spice: line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

func firstField(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// parseCard dispatches one element line on its leading letter.
func parseCard(c *Circuit, line string) error {
	fields := tokenize(line)
	if len(fields) == 0 {
		return nil
	}
	name := fields[0]
	// Add panics on duplicate names (a programming error when building
	// circuits in code); a text deck is user input, so report it as a
	// parse error instead.
	if c.Element(name) != nil {
		return fmt.Errorf("duplicate element name %q", name)
	}
	switch strings.ToUpper(name[:1]) {
	case "R":
		if len(fields) != 4 {
			return fmt.Errorf("resistor %s: want 'R n+ n- value', got %d fields", name, len(fields))
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("resistor %s: %w", name, err)
		}
		if v <= 0 {
			return fmt.Errorf("resistor %s: non-positive value %g", name, v)
		}
		c.R(name, fields[1], fields[2], v)
	case "C":
		if len(fields) != 4 {
			return fmt.Errorf("capacitor %s: want 'C n+ n- value', got %d fields", name, len(fields))
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("capacitor %s: %w", name, err)
		}
		if v <= 0 {
			return fmt.Errorf("capacitor %s: non-positive value %g", name, v)
		}
		c.C(name, fields[1], fields[2], v)
	case "V", "I":
		if len(fields) < 4 {
			return fmt.Errorf("source %s: too few fields", name)
		}
		w, err := parseWaveform(fields[3:])
		if err != nil {
			return fmt.Errorf("source %s: %w", name, err)
		}
		if strings.ToUpper(name[:1]) == "V" {
			c.V(name, fields[1], fields[2], w)
		} else {
			c.I(name, fields[1], fields[2], w)
		}
	case "M":
		return parseMOS(c, name, fields)
	case "E":
		if len(fields) != 6 {
			return fmt.Errorf("vcvs %s: want 'E p n cp cn gain'", name)
		}
		g, err := ParseValue(fields[5])
		if err != nil {
			return fmt.Errorf("vcvs %s: %w", name, err)
		}
		c.E(name, fields[1], fields[2], fields[3], fields[4], g)
	case "U":
		return parseOpAmp(c, name, fields)
	default:
		return fmt.Errorf("unknown element card %q", name)
	}
	return nil
}

// tokenize splits a card into fields, keeping function-call groups like
// PULSE(0 1 ...) as a single token.
func tokenize(line string) []string {
	var out []string
	depth := 0
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case (r == ' ' || r == '\t' || r == ',') && depth == 0:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

func parseMOS(c *Circuit, name string, fields []string) error {
	if len(fields) < 5 {
		return fmt.Errorf("mosfet %s: want 'M d g s nmos|pmos W=.. L=..'", name)
	}
	model := strings.ToLower(fields[4])
	var params MOSParams
	switch model {
	case "nmos":
		params = NMOS65()
	case "pmos":
		params = PMOS65()
	default:
		return fmt.Errorf("mosfet %s: unknown model %q (want nmos|pmos)", name, model)
	}
	w, l := 1e-6, 100e-9
	for _, f := range fields[5:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("mosfet %s: bad parameter %q", name, f)
		}
		v, err := ParseValue(val)
		if err != nil {
			return fmt.Errorf("mosfet %s: %s: %w", name, key, err)
		}
		switch strings.ToUpper(key) {
		case "W":
			w = v
		case "L":
			l = v
		case "VTH":
			params.Vth = v
		case "KP":
			params.KP = v
		case "LAMBDA":
			params.Lambda = v
		default:
			return fmt.Errorf("mosfet %s: unknown parameter %q", name, key)
		}
	}
	if w <= 0 || l <= 0 {
		return fmt.Errorf("mosfet %s: non-positive geometry W=%g L=%g", name, w, l)
	}
	if model == "nmos" {
		c.NMOSDev(name, fields[1], fields[2], fields[3], w, l, params)
	} else {
		c.PMOSDev(name, fields[1], fields[2], fields[3], w, l, params)
	}
	return nil
}

func parseOpAmp(c *Circuit, name string, fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("opamp %s: want 'U in+ in- out [GAIN=..] [LO=..] [HI=..]'", name)
	}
	gain, lo, hi := 1e5, 0.0, 1.0
	for _, f := range fields[4:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("opamp %s: bad parameter %q", name, f)
		}
		v, err := ParseValue(val)
		if err != nil {
			return fmt.Errorf("opamp %s: %s: %w", name, key, err)
		}
		switch strings.ToUpper(key) {
		case "GAIN":
			gain = v
		case "LO":
			lo = v
		case "HI":
			hi = v
		default:
			return fmt.Errorf("opamp %s: unknown parameter %q", name, key)
		}
	}
	c.OpAmp(name, fields[1], fields[2], fields[3], gain, lo, hi)
	return nil
}

// parseWaveform interprets the source-value fields of a V/I card.
func parseWaveform(fields []string) (Waveform, error) {
	first := strings.ToUpper(fields[0])
	switch {
	case first == "DC":
		if len(fields) != 2 {
			return nil, fmt.Errorf("DC needs one value")
		}
		v, err := ParseValue(fields[1])
		if err != nil {
			return nil, err
		}
		return DC(v), nil
	case strings.HasPrefix(first, "PULSE("):
		args, err := parseArgs(fields[0])
		if err != nil {
			return nil, err
		}
		if len(args) != 7 {
			return nil, fmt.Errorf("PULSE wants 7 args (lo hi delay rise fall width period), got %d", len(args))
		}
		return Pulse{
			Low: args[0], High: args[1], Delay: args[2],
			Rise: args[3], Fall: args[4], Width: args[5], Period: args[6],
		}, nil
	case strings.HasPrefix(first, "SIN("):
		args, err := parseArgs(fields[0])
		if err != nil {
			return nil, err
		}
		if len(args) < 3 || len(args) > 4 {
			return nil, fmt.Errorf("SIN wants 3-4 args (offset amp freq [delay]), got %d", len(args))
		}
		s := Sine{Offset: args[0], Amp: args[1], Freq: args[2]}
		if len(args) == 4 {
			s.Delay = args[3]
		}
		return s, nil
	case strings.HasPrefix(first, "PWL("):
		args, err := parseArgs(fields[0])
		if err != nil {
			return nil, err
		}
		if len(args) < 2 || len(args)%2 != 0 {
			return nil, fmt.Errorf("PWL wants time/value pairs, got %d args", len(args))
		}
		ts := make([]float64, 0, len(args)/2)
		vs := make([]float64, 0, len(args)/2)
		for i := 0; i < len(args); i += 2 {
			ts = append(ts, args[i])
			vs = append(vs, args[i+1])
		}
		return NewPWL(ts, vs)
	case strings.HasPrefix(first, "SPIKE("):
		args, err := parseArgs(fields[0])
		if err != nil {
			return nil, err
		}
		if len(args) < 3 || len(args) > 4 {
			return nil, fmt.Errorf("SPIKE wants 3-4 args (amp width period [delay]), got %d", len(args))
		}
		s := SpikeTrain{Amp: args[0], Width: args[1], Period: args[2]}
		if len(args) == 4 {
			s.Delay = args[3]
		}
		return s, nil
	default:
		// Bare value is shorthand for DC.
		if len(fields) == 1 {
			v, err := ParseValue(fields[0])
			if err != nil {
				return nil, err
			}
			return DC(v), nil
		}
		return nil, fmt.Errorf("unrecognized waveform %q", fields[0])
	}
}

// parseArgs extracts the numeric arguments of "NAME(a b c)".
func parseArgs(tok string) ([]float64, error) {
	open := strings.Index(tok, "(")
	close := strings.LastIndex(tok, ")")
	if open < 0 || close < open {
		return nil, fmt.Errorf("malformed argument group %q", tok)
	}
	inner := tok[open+1 : close]
	parts := strings.FieldsFunc(inner, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := ParseValue(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseValue parses a SPICE number with engineering suffix: 1k, 2.2meg,
// 100n, 1p, 0.5u, 3m, 1e-9, plain floats. Suffixes are case-insensitive
// and anything after a recognized suffix is ignored (so "10pF" works).
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	// Longest-suffix-first table; "meg" must precede "m".
	suffixes := []struct {
		suffix string
		mult   float64
	}{
		{"meg", 1e6}, {"t", 1e12}, {"g", 1e9}, {"k", 1e3},
		{"m", 1e-3}, {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
	}
	// Split numeric prefix from the rest.
	i := 0
	for i < len(s) {
		ch := s[i]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == '+' || ch == '-' {
			i++
			continue
		}
		if (ch == 'e') && i+1 < len(s) && (s[i+1] == '-' || s[i+1] == '+' || (s[i+1] >= '0' && s[i+1] <= '9')) {
			// scientific notation exponent
			i += 2
			for i < len(s) && s[i] >= '0' && s[i] <= '9' {
				i++
			}
			continue
		}
		break
	}
	numPart, rest := s[:i], s[i:]
	base, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	v := base
	if rest != "" {
		mult := 0.0
		for _, sf := range suffixes {
			if strings.HasPrefix(rest, sf.suffix) {
				mult = sf.mult
				break
			}
		}
		if mult == 0 {
			return 0, fmt.Errorf("unknown unit suffix %q in %q", rest, s)
		}
		v *= mult
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("value %q is not finite", s)
	}
	return v, nil
}
