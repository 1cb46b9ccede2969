package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse resolves a scheme spec string to a Scheme. It accepts, case-
// insensitively:
//
//   - bare family names and aliases: "ideal", "Scrubbing", "m-metric",
//     "mmetric", "tlc", "hybrid"
//   - parameterized specs: "lwt:k=8", "lwt:k=8,convert=false",
//     "select:k=4,s=2", "lwc:r=16"
//   - the paper's labels, as printed by Scheme.Name(): "LWT-8",
//     "LWT-8-noconv", "Select-4:2", "LWC-16"
//   - an operating environment on any of the above, as spec parameters
//     ("scrubbing:temp=250", "lwt:k=4,disturb=1e-06") or label suffixes
//     ("Scrubbing@temp=250", "LWT-4@temp=250@disturb=1e-06"). The
//     environment keys temp= (Kelvin, default 300) and disturb= (per-read
//     probability, default 0) are extracted centrally before family
//     dispatch, so every family accepts them; explicit defaults normalize
//     away ("ideal:temp=300" == "ideal").
//
// Round trip: Parse(s.Name()) == s and Parse(s.Spec()) == s for every
// scheme built by a registered family, at any environment. Malformed specs
// return errors that name the offending fragment and the accepted grammar.
func Parse(spec string) (Scheme, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return Scheme{}, fmt.Errorf("sim: empty scheme spec (known schemes: %s)",
			strings.Join(SchemeGrammars(), "; "))
	}
	lower := strings.ToLower(s)
	lower, labelEnv, err := splitEnvLabel(lower)
	if err != nil {
		return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
	}
	env, err := extractEnv(labelEnvMap(labelEnv))
	if err != nil {
		return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
	}

	finish := func(sch Scheme) (Scheme, error) {
		sch, err := sch.AtEnv(env)
		if err != nil {
			return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
		}
		if err := sch.Validate(); err != nil {
			return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
		}
		return sch, nil
	}
	build := func(f *schemeFamily, params map[string]string) (Scheme, error) {
		sch, err := f.build(params)
		if err != nil {
			return Scheme{}, err
		}
		return finish(sch)
	}

	if f, ok := familyByName[lower]; ok {
		return build(f, nil)
	}
	if head, rest, found := strings.Cut(lower, ":"); found {
		if f, ok := familyByName[strings.TrimSpace(head)]; ok {
			params, err := parseParams(rest)
			if err != nil {
				return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
			}
			paramEnv, err := extractEnv(params)
			if err != nil {
				return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
			}
			if env, err = mergeEnv(env, paramEnv); err != nil {
				return Scheme{}, fmt.Errorf("sim: scheme %q: %w", spec, err)
			}
			return build(f, params)
		}
	}
	for _, f := range families {
		if f.buildLabel == nil {
			continue
		}
		sch, ok, err := f.buildLabel(lower)
		if err != nil {
			return Scheme{}, err
		}
		if ok {
			return finish(sch)
		}
	}
	return Scheme{}, fmt.Errorf("sim: unknown scheme %q (known schemes: %s)",
		spec, strings.Join(SchemeGrammars(), "; "))
}

// labelEnvMap adapts splitEnvLabel's possibly-nil param map for extractEnv.
func labelEnvMap(m map[string]string) map[string]string {
	if m == nil {
		return map[string]string{}
	}
	return m
}

// mergeEnv combines the label-suffix and spec-parameter environments,
// rejecting a key given through both channels.
func mergeEnv(a, b Environment) (Environment, error) {
	if a.TempK != 0 && b.TempK != 0 {
		return Environment{}, fmt.Errorf("parameter %q given twice", envKeyTemp)
	}
	if a.Disturb != 0 && b.Disturb != 0 {
		return Environment{}, fmt.Errorf("parameter %q given twice", envKeyDisturb)
	}
	if b.TempK != 0 {
		a.TempK = b.TempK
	}
	if b.Disturb != 0 {
		a.Disturb = b.Disturb
	}
	return a, nil
}

// ParseList parses a comma-separated scheme list ("Ideal,LWT-8,
// Select-4:2"). Commas inside a parameterized spec are handled: a
// key=value fragment continues the preceding spec, so
// "Ideal,lwt:k=8,convert=false" is two schemes, not three.
func ParseList(list string) ([]Scheme, error) {
	var specs []string
	for _, frag := range strings.Split(list, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			continue
		}
		// A bare key=value fragment belongs to the previous spec's
		// parameter list. A fragment with an @-environment suffix is a
		// label ("Scrubbing@temp=250"), never a parameter continuation.
		if len(specs) > 0 && strings.Contains(frag, "=") && !strings.Contains(frag, ":") &&
			!strings.Contains(frag, "@") && strings.Contains(specs[len(specs)-1], ":") {
			specs[len(specs)-1] += "," + frag
			continue
		}
		specs = append(specs, frag)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: empty scheme list")
	}
	out := make([]Scheme, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		sch, err := Parse(spec)
		if err != nil {
			return nil, err
		}
		if seen[sch.Name()] {
			return nil, fmt.Errorf("sim: scheme %q listed twice", sch.Name())
		}
		seen[sch.Name()] = true
		out = append(out, sch)
	}
	return out, nil
}

// parseParams splits "k=8,convert=false" into a map, rejecting malformed
// or duplicate fragments.
func parseParams(s string) (map[string]string, error) {
	params := map[string]string{}
	for _, frag := range strings.Split(s, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			return nil, fmt.Errorf("empty parameter (want key=value)")
		}
		key, val, found := strings.Cut(frag, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !found || key == "" || val == "" {
			return nil, fmt.Errorf("malformed parameter %q (want key=value)", frag)
		}
		if _, dup := params[key]; dup {
			return nil, fmt.Errorf("parameter %q given twice", key)
		}
		params[key] = val
	}
	return params, nil
}

// intParam extracts an integer parameter; required controls whether
// absence is an error or yields def.
func intParam(params map[string]string, key string, required bool, def int) (int, error) {
	val, ok := params[key]
	if !ok {
		if required {
			return 0, fmt.Errorf("sim: missing required parameter %q", key)
		}
		return def, nil
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("sim: parameter %s=%q is not an integer", key, val)
	}
	return n, nil
}

// boolParam extracts a boolean parameter, defaulting to def when absent.
func boolParam(params map[string]string, key string, def bool) (bool, error) {
	val, ok := params[key]
	if !ok {
		return def, nil
	}
	b, err := strconv.ParseBool(val)
	if err != nil {
		return false, fmt.Errorf("sim: parameter %s=%q is not a boolean", key, val)
	}
	return b, nil
}

// rejectUnknown errors on any parameter outside the allowed set, so typos
// fail loudly instead of silently using defaults.
func rejectUnknown(params map[string]string, allowed ...string) error {
	for key := range params {
		known := false
		for _, a := range allowed {
			if key == a {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("sim: unknown parameter %q (allowed: %s)", key, strings.Join(allowed, ", "))
		}
	}
	return nil
}
