package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"readduo/internal/dist"
	"readduo/internal/drift"
	"readduo/internal/reliability"
)

// Environment is a design point's operating environment — the fourth,
// orthogonal axis next to the sense mode, scrub plan and write mode. The
// zero value is the paper's operating point (300 K ambient, no read
// disturb) and is what every registered constructor produces, so schemes
// at the default environment stay bit-identical to the seed.
//
// Every registered family accepts the environment keys in its spec
// parameters ("scrubbing:temp=250", "lwt:k=4,disturb=1e-06") and as
// @-suffixes on its paper label ("Scrubbing@temp=250",
// "LWT-4@disturb=1e-06"); Parse strips them centrally, so families remain
// environment-oblivious.
type Environment struct {
	// TempK is the ambient temperature in Kelvin; 0 means drift.DefaultTempK.
	TempK float64
	// Disturb is the per-read per-cell read-disturb probability; 0 disables
	// the channel (see drift.DisturbChannel).
	Disturb float64
}

// IsZero reports whether the environment is the paper's default operating
// point.
func (env Environment) IsZero() bool { return env == Environment{} }

// Temperature resolves the ambient temperature, mapping the zero value to
// the default 300 K.
func (env Environment) Temperature() float64 {
	if env.TempK == 0 {
		return drift.DefaultTempK
	}
	return env.TempK
}

// Validate checks both environment parameters against the drift models'
// supported ranges.
func (env Environment) Validate() error {
	if env.TempK != 0 {
		if err := drift.ValidateTempK(env.TempK); err != nil {
			return err
		}
	}
	return drift.DisturbChannel{PerRead: env.Disturb}.Validate()
}

// normalize canonicalizes the environment: explicit defaults collapse to
// the zero value, so Parse("ideal:temp=300") == Ideal().
func (env Environment) normalize() Environment {
	if env.TempK == drift.DefaultTempK {
		env.TempK = 0
	}
	return env
}

// formatEnvFloat renders an environment value in the shortest exact form,
// so spec strings round-trip through ParseFloat bit-exactly.
func formatEnvFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// specParams renders the non-default environment as spec-parameter
// fragments ("temp=250,disturb=1e-06"); empty for the default environment.
func (env Environment) specParams() string {
	var parts []string
	if env.TempK != 0 {
		parts = append(parts, "temp="+formatEnvFloat(env.TempK))
	}
	if env.Disturb != 0 {
		parts = append(parts, "disturb="+formatEnvFloat(env.Disturb))
	}
	return strings.Join(parts, ",")
}

// nameSuffix renders the non-default environment as label suffixes
// ("@temp=250@disturb=1e-06"); empty for the default environment.
func (env Environment) nameSuffix() string {
	var b strings.Builder
	if env.TempK != 0 {
		b.WriteString("@temp=")
		b.WriteString(formatEnvFloat(env.TempK))
	}
	if env.Disturb != 0 {
		b.WriteString("@disturb=")
		b.WriteString(formatEnvFloat(env.Disturb))
	}
	return b.String()
}

// envKeys are the spec-parameter keys Parse extracts before family
// dispatch.
const (
	envKeyTemp    = "temp"
	envKeyDisturb = "disturb"
)

// extractEnv removes the environment keys from a spec parameter map and
// parses them; remaining params belong to the scheme family.
func extractEnv(params map[string]string) (Environment, error) {
	var env Environment
	if val, ok := params[envKeyTemp]; ok {
		delete(params, envKeyTemp)
		t, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Environment{}, fmt.Errorf("sim: parameter temp=%q is not a number", val)
		}
		if t == 0 {
			return Environment{}, fmt.Errorf("sim: parameter temp=0 is not a temperature (Kelvin; default %v)", drift.DefaultTempK)
		}
		env.TempK = t
	}
	if val, ok := params[envKeyDisturb]; ok {
		delete(params, envKeyDisturb)
		d, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Environment{}, fmt.Errorf("sim: parameter disturb=%q is not a number", val)
		}
		env.Disturb = d
	}
	if err := env.Validate(); err != nil {
		return Environment{}, err
	}
	return env.normalize(), nil
}

// splitEnvLabel cuts a label's "@key=value" environment suffixes off
// ("scrubbing@temp=250@disturb=1e-06" -> "scrubbing" + params), leaving
// non-environment labels untouched.
func splitEnvLabel(label string) (base string, params map[string]string, err error) {
	base, rest, found := strings.Cut(label, "@")
	if !found {
		return label, nil, nil
	}
	params = map[string]string{}
	for _, frag := range strings.Split(rest, "@") {
		key, val, ok := strings.Cut(frag, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return "", nil, fmt.Errorf("malformed environment suffix %q (want @temp=<K> or @disturb=<p>)", frag)
		}
		if key != envKeyTemp && key != envKeyDisturb {
			return "", nil, fmt.Errorf("unknown environment suffix key %q (allowed: temp, disturb)", key)
		}
		if _, dup := params[key]; dup {
			return "", nil, fmt.Errorf("environment suffix %q given twice", key)
		}
		params[key] = val
	}
	return base, params, nil
}

// AtEnv returns the scheme relocated to the given operating environment,
// re-rendering its name ("Scrubbing@temp=250") and spec
// ("scrubbing:temp=250") so both round-trip through Parse. The default
// environment returns the scheme unchanged; relocating an already
// relocated scheme is rejected rather than stacking suffixes.
func (s Scheme) AtEnv(env Environment) (Scheme, error) {
	if err := env.Validate(); err != nil {
		return Scheme{}, err
	}
	env = env.normalize()
	if env.IsZero() {
		return s, nil
	}
	if !s.Env.IsZero() {
		return Scheme{}, fmt.Errorf("sim: scheme %q already carries an environment", s.name)
	}
	out := s
	out.Env = env
	out.name = s.name + env.nameSuffix()
	sep := ":"
	if strings.Contains(s.spec, ":") {
		sep = ","
	}
	out.spec = s.spec + sep + env.specParams()
	return out, nil
}

// Engine-side read-disturb channel. The channel is engine-central — the
// sense, scrub and write arms stay disturb-oblivious — and entirely gated on
// Environment.Disturb, so default-environment runs never touch it.

// disturbDetect is the detection threshold of the standard BCH-8 line
// code: more than 2t+1 symbol errors escape detection (the same threshold
// probCache uses for the drift silent-error channel).
const disturbDetect = 2*8 + 1

// noteDisturbRead accounts one demand read of phys under the disturb
// channel: with the accumulated per-cell disturb error probability of the
// reads since the line's last rewrite, the line may return undetectably
// wrong data (counted like Hybrid's silent errors), and the read itself
// becomes part of the next read's accumulation.
func (e *Engine) noteDisturbRead(phys uint64) {
	r, _ := e.readCounts.Get(phys)
	if q := e.disturb.CellErrorProb(r); q > 0 {
		pSilent := dist.BinomTailGT(reliability.CellsPerLine, q, disturbDetect)
		if e.rng.Float64() < pSilent {
			e.stats.silentErrors++
			e.tel.disturbSilent.Inc()
		}
	}
	e.readCounts.Put(phys, r+1)
}

// disturbCombine folds the line's accumulated disturb-error probability
// into a scrub scan's rewrite probability: the scan rewrites when drift
// errors OR disturb errors are present, the channels being independent.
func (e *Engine) disturbCombine(pDrift float64, phys uint64) float64 {
	r, _ := e.readCounts.Get(phys)
	q := e.disturb.CellErrorProb(r)
	if q <= 0 {
		return pDrift
	}
	pAnyDisturb := -math.Expm1(float64(reliability.CellsPerLine) * math.Log1p(-q))
	return 1 - (1-pDrift)*(1-pAnyDisturb)
}

// noteDisturbScrub accounts one scrub visit: a rewrite restores every
// cell and resets the accumulation; a scan without rewrite is itself one
// more sensing pass over the line.
func (e *Engine) noteDisturbScrub(phys uint64, rewrote bool) {
	if rewrote {
		e.readCounts.Put(phys, 0)
		return
	}
	r, _ := e.readCounts.Get(phys)
	e.readCounts.Put(phys, r+1)
}

// noteDisturbRewrite resets the line's accumulation after a full demand
// (or conversion) rewrite.
func (e *Engine) noteDisturbRewrite(phys uint64) {
	if e.readCounts != nil {
		e.readCounts.Put(phys, 0)
	}
}
