package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// schemeFamily is one scheme family of the registry: a factory plus the
// names and grammar Parse resolves to it. Every family is nameable from
// every CLI -schemes flag, campaign journal, and the facade.
type schemeFamily struct {
	// key is the canonical lowercase family key ("lwt").
	key string
	// aliases are extra lowercase names resolving to this family
	// ("m-metric" also answers to "mmetric").
	aliases []string
	// grammar is the one-line usage quoted by parse errors.
	grammar string
	// build constructs the scheme from spec parameters; params is nil for
	// the bare-name form ("ideal").
	build func(params map[string]string) (Scheme, error)
	// buildLabel, when non-nil, parses the family's paper-style label
	// ("lwt-8-noconv", lowercased). ok=false means the label belongs to
	// another family.
	buildLabel func(label string) (s Scheme, ok bool, err error)
}

var (
	families     []*schemeFamily
	familyByName = map[string]*schemeFamily{}
)

// registerScheme adds a family to the registry. It panics on a duplicate
// key or alias, a programming error caught at init.
func registerScheme(f schemeFamily) {
	fam := &f
	for _, name := range append([]string{f.key}, f.aliases...) {
		if _, dup := familyByName[name]; dup {
			panic(fmt.Sprintf("sim: scheme family name %q registered twice", name))
		}
		familyByName[name] = fam
	}
	families = append(families, fam)
}

// SchemeGrammars returns every registered family's grammar line, sorted,
// for help and error text.
func SchemeGrammars() []string {
	out := make([]string, 0, len(families))
	for _, f := range families {
		out = append(out, f.grammar)
	}
	sort.Strings(out)
	return out
}

// fixedFamily registers a parameterless design under its paper name.
func fixedFamily(key string, build func() Scheme, aliases ...string) schemeFamily {
	return schemeFamily{
		key:     key,
		aliases: aliases,
		grammar: key,
		build: func(params map[string]string) (Scheme, error) {
			if len(params) > 0 {
				return Scheme{}, fmt.Errorf("sim: scheme %q takes no parameters", key)
			}
			return build(), nil
		},
	}
}

func init() {
	registerScheme(fixedFamily("ideal", Ideal))
	registerScheme(fixedFamily("scrubbing", Scrubbing))
	registerScheme(fixedFamily("m-metric", MMetric, "mmetric"))
	registerScheme(fixedFamily("tlc", TLC))
	registerScheme(fixedFamily("hybrid", Hybrid))

	registerScheme(schemeFamily{
		key:     "lwt",
		grammar: "lwt:k=<2..32>[,convert=<bool>]  (label: LWT-<k>[-noconv])",
		build: func(params map[string]string) (Scheme, error) {
			k, err := intParam(params, "k", true, 0)
			if err != nil {
				return Scheme{}, err
			}
			convert, err := boolParam(params, "convert", true)
			if err != nil {
				return Scheme{}, err
			}
			if err := rejectUnknown(params, "k", "convert"); err != nil {
				return Scheme{}, err
			}
			return LWT(k, convert), nil
		},
		buildLabel: func(label string) (Scheme, bool, error) {
			rest, ok := strings.CutPrefix(label, "lwt-")
			if !ok {
				return Scheme{}, false, nil
			}
			convert := true
			if trimmed, noconv := strings.CutSuffix(rest, "-noconv"); noconv {
				convert, rest = false, trimmed
			}
			k, err := strconv.Atoi(rest)
			if err != nil {
				return Scheme{}, false, fmt.Errorf("sim: bad LWT label %q (want LWT-<k> or LWT-<k>-noconv)", label)
			}
			return LWT(k, convert), true, nil
		},
	})

	registerScheme(schemeFamily{
		key:     "lwc",
		grammar: "lwc:r=<2..64>  (label: LWC-<r>)",
		build: func(params map[string]string) (Scheme, error) {
			r, err := intParam(params, "r", true, 0)
			if err != nil {
				return Scheme{}, err
			}
			if err := rejectUnknown(params, "r"); err != nil {
				return Scheme{}, err
			}
			return LWC(r), nil
		},
		buildLabel: func(label string) (Scheme, bool, error) {
			rest, ok := strings.CutPrefix(label, "lwc-")
			if !ok {
				return Scheme{}, false, nil
			}
			r, err := strconv.Atoi(rest)
			if err != nil {
				return Scheme{}, false, fmt.Errorf("sim: bad LWC label %q (want LWC-<r>)", label)
			}
			return LWC(r), true, nil
		},
	})

	registerScheme(schemeFamily{
		key:     "select",
		grammar: "select:k=<2..32>,s=<1..k>  (label: Select-<k>:<s>)",
		build: func(params map[string]string) (Scheme, error) {
			k, err := intParam(params, "k", true, 0)
			if err != nil {
				return Scheme{}, err
			}
			s, err := intParam(params, "s", true, 0)
			if err != nil {
				return Scheme{}, err
			}
			if err := rejectUnknown(params, "k", "s"); err != nil {
				return Scheme{}, err
			}
			return Select(k, s), nil
		},
		buildLabel: func(label string) (Scheme, bool, error) {
			rest, ok := strings.CutPrefix(label, "select-")
			if !ok {
				return Scheme{}, false, nil
			}
			kStr, sStr, found := strings.Cut(rest, ":")
			if !found {
				return Scheme{}, false, fmt.Errorf("sim: bad Select label %q (want Select-<k>:<s>)", label)
			}
			k, errK := strconv.Atoi(kStr)
			s, errS := strconv.Atoi(sStr)
			if errK != nil || errS != nil {
				return Scheme{}, false, fmt.Errorf("sim: bad Select label %q (want Select-<k>:<s>)", label)
			}
			return Select(k, s), true, nil
		},
	})
}

// The evaluation's scheme sets, shared by the cmd tools instead of
// copy-pasted constructor lists.

// PriorSchemes returns the pre-ReadDuo comparison set of §IV.
func PriorSchemes() []Scheme {
	return []Scheme{Ideal(), Scrubbing(), MMetric(), TLC()}
}

// ReadDuoSchemes returns the paper's proposed designs next to Ideal.
func ReadDuoSchemes() []Scheme {
	return []Scheme{Ideal(), Hybrid(), LWT(4, true), Select(4, 2)}
}

// AllSchemes returns all seven evaluated schemes in figure order.
func AllSchemes() []Scheme {
	return append(PriorSchemes(), Hybrid(), LWT(4, true), Select(4, 2))
}

// EDAPSchemes returns the Figure 11 set: every real design, with the TLC
// normalization baseline first and Ideal (not a buildable design) absent.
func EDAPSchemes() []Scheme {
	return []Scheme{TLC(), Scrubbing(), MMetric(), Hybrid(), LWT(4, true), Select(4, 2)}
}
