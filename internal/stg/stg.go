// Package stg implements Signal Transition Graphs, the specification
// formalism from which the paper's benchmark circuits were synthesized
// (Petrify's and SIS's .g/astg input format).  An STG is a labelled
// Petri net whose transitions are signal edges (a+, a-); its reachable
// markings, projected onto signal values, define the intended behaviour
// of an asynchronous controller and of its environment.
//
// The package provides the .g parser, the token game (reachability with
// boundedness and consistency checks), and a gate-level conformance
// check in the style of Roig et al.'s hierarchical verification (the
// paper's reference [20]): the circuit is closed with the STG acting as
// its environment, and every output transition the circuit produces
// must be enabled in the specification.
package stg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Polarity of a signal transition.
type Polarity uint8

// Transition polarities.
const (
	Rise Polarity = iota // a+
	Fall                 // a-
)

func (p Polarity) String() string {
	if p == Rise {
		return "+"
	}
	return "-"
}

// Transition is one signal edge, e.g. "req+" or "ack-/2" (the index
// distinguishes multiple occurrences of the same edge).
type Transition struct {
	Signal string
	Pol    Polarity
	Index  int // 0 unless written t/k
}

// String renders the transition in .g syntax.
func (t Transition) String() string {
	if t.Index == 0 {
		return t.Signal + t.Pol.String()
	}
	return fmt.Sprintf("%s%s/%d", t.Signal, t.Pol, t.Index)
}

// SignalClass partitions STG signals.
type SignalClass uint8

// Signal classes.
const (
	Input SignalClass = iota
	Output
	Internal
)

// Net is a parsed STG: a Petri net over signal transitions.
type Net struct {
	Name    string
	Signals map[string]SignalClass
	// Trans lists the declared transitions; arcs reference them by index.
	Trans []Transition
	// Places: explicit places plus one implicit place per transition→
	// transition arc.
	Places []Place
	// Initial marking: tokens per place, parallel to Places.
	Initial []int

	transIdx map[Transition]int
	placeIdx map[string]int
}

// Place is a Petri-net place with its consumers and producers
// (transition indices).
type Place struct {
	Name string // "<a+,b->" for implicit places
	In   []int  // producing transitions
	Out  []int  // consuming transitions
}

// TransitionIndex resolves a transition to its index.
func (n *Net) TransitionIndex(t Transition) (int, bool) {
	i, ok := n.transIdx[t]
	return i, ok
}

// Marking is a token count per place (parallel to Net.Places).
type Marking []int

// Key returns a comparable map key for the marking.
func (m Marking) Key() string {
	b := make([]byte, len(m))
	for i, v := range m {
		if v > 255 {
			v = 255
		}
		b[i] = byte(v)
	}
	return string(b)
}

// Clone copies the marking.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

// Enabled reports whether transition ti may fire in marking m.
func (n *Net) Enabled(m Marking, ti int) bool {
	for pi, p := range n.Places {
		for _, out := range p.Out {
			if out == ti && m[pi] == 0 {
				return false
			}
		}
	}
	return true
}

// EnabledSet returns all enabled transition indices.
func (n *Net) EnabledSet(m Marking) []int {
	var out []int
	for ti := range n.Trans {
		if n.Enabled(m, ti) {
			out = append(out, ti)
		}
	}
	return out
}

// Fire returns the marking after firing transition ti (which must be
// enabled).
func (n *Net) Fire(m Marking, ti int) Marking {
	nm := m.Clone()
	for pi, p := range n.Places {
		for _, out := range p.Out {
			if out == ti {
				nm[pi]--
			}
		}
		for _, in := range p.In {
			if in == ti {
				nm[pi]++
			}
		}
	}
	return nm
}

// Parse reads an STG in .g (astg) format.  Supported directives:
// .model/.name, .inputs, .outputs, .internal, .graph (transition or
// place arcs), .marking { <a+,b-> p1 ... }, .end.  Transitions may
// carry /k indices.  Arcs from/to explicit places use bare place names.
func Parse(r io.Reader, file string) (*Net, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	n := &Net{
		Signals:  map[string]SignalClass{},
		transIdx: map[Transition]int{},
		placeIdx: map[string]int{},
	}
	line := 0
	inGraph := false
	var markingText strings.Builder
	inMarking := false
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", file, line, fmt.Sprintf(format, args...))
	}
	// Arc lists gathered during .graph; resolved after all transitions
	// and explicit places are known.
	type rawArc struct {
		from string
		to   []string
		line int
	}
	var arcs []rawArc
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if inMarking {
			markingText.WriteString(" " + text)
			if strings.Contains(text, "}") {
				inMarking = false
			}
			continue
		}
		fields := strings.Fields(text)
		switch {
		case strings.HasPrefix(text, ".model") || strings.HasPrefix(text, ".name"):
			if len(fields) > 1 {
				n.Name = fields[1]
			}
		case strings.HasPrefix(text, ".inputs"):
			for _, s := range fields[1:] {
				n.Signals[s] = Input
			}
		case strings.HasPrefix(text, ".outputs"):
			for _, s := range fields[1:] {
				n.Signals[s] = Output
			}
		case strings.HasPrefix(text, ".internal"):
			for _, s := range fields[1:] {
				n.Signals[s] = Internal
			}
		case strings.HasPrefix(text, ".graph"):
			inGraph = true
		case strings.HasPrefix(text, ".marking"):
			markingText.WriteString(text)
			if !strings.Contains(text, "}") {
				inMarking = true
			}
		case strings.HasPrefix(text, ".end"):
			inGraph = false
		case strings.HasPrefix(text, "."):
			// Ignore directives we do not model (.capacity, .slowenv, ...).
		default:
			if !inGraph {
				return nil, fail("arc outside .graph section: %q", text)
			}
			if len(fields) < 2 {
				return nil, fail("arc needs a source and at least one target: %q", text)
			}
			arcs = append(arcs, rawArc{from: fields[0], to: fields[1:], line: line})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stg: reading %s: %w", file, err)
	}

	// First pass: declare transitions and explicit places named in arcs.
	declare := func(tok string) error {
		if t, ok := parseTransition(tok); ok {
			if _, known := n.Signals[t.Signal]; !known {
				return fmt.Errorf("transition %q uses undeclared signal %q", tok, t.Signal)
			}
			if _, dup := n.transIdx[t]; !dup {
				n.transIdx[t] = len(n.Trans)
				n.Trans = append(n.Trans, t)
			}
			return nil
		}
		if _, dup := n.placeIdx[tok]; !dup {
			n.placeIdx[tok] = len(n.Places)
			n.Places = append(n.Places, Place{Name: tok})
		}
		return nil
	}
	for _, a := range arcs {
		line = a.line
		if err := declare(a.from); err != nil {
			return nil, fail("%v", err)
		}
		for _, to := range a.to {
			if err := declare(to); err != nil {
				return nil, fail("%v", err)
			}
		}
	}
	// Second pass: materialise arcs.  transition→transition arcs get an
	// implicit place; place↔transition arcs attach to the explicit place.
	implicit := map[[2]int]int{}
	for _, a := range arcs {
		line = a.line
		fromT, fromIsT := parseKnownTransition(n, a.from)
		for _, to := range a.to {
			toT, toIsT := parseKnownTransition(n, to)
			switch {
			case fromIsT && toIsT:
				key := [2]int{fromT, toT}
				pi, ok := implicit[key]
				if !ok {
					pi = len(n.Places)
					implicit[key] = pi
					n.Places = append(n.Places, Place{
						Name: fmt.Sprintf("<%s,%s>", n.Trans[fromT], n.Trans[toT]),
					})
				}
				n.Places[pi].In = append(n.Places[pi].In, fromT)
				n.Places[pi].Out = append(n.Places[pi].Out, toT)
			case fromIsT && !toIsT:
				pi := n.placeIdx[to]
				n.Places[pi].In = append(n.Places[pi].In, fromT)
			case !fromIsT && toIsT:
				pi := n.placeIdx[a.from]
				n.Places[pi].Out = append(n.Places[pi].Out, toT)
			default:
				return nil, fail("place-to-place arc %q -> %q", a.from, to)
			}
		}
	}
	n.Initial = make([]int, len(n.Places))
	if err := parseMarking(n, markingText.String()); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if len(n.Trans) == 0 {
		return nil, fmt.Errorf("%s: no transitions", file)
	}
	return n, nil
}

// ParseString parses a .g description from memory.
func ParseString(src, file string) (*Net, error) {
	return Parse(strings.NewReader(src), file)
}

func parseTransition(tok string) (Transition, bool) {
	idx := 0
	if i := strings.IndexByte(tok, '/'); i >= 0 {
		var k int
		if _, err := fmt.Sscanf(tok[i+1:], "%d", &k); err != nil {
			return Transition{}, false
		}
		idx = k
		tok = tok[:i]
	}
	if len(tok) < 2 {
		return Transition{}, false
	}
	switch tok[len(tok)-1] {
	case '+':
		return Transition{Signal: tok[:len(tok)-1], Pol: Rise, Index: idx}, true
	case '-':
		return Transition{Signal: tok[:len(tok)-1], Pol: Fall, Index: idx}, true
	}
	return Transition{}, false
}

func parseKnownTransition(n *Net, tok string) (int, bool) {
	t, ok := parseTransition(tok)
	if !ok {
		return 0, false
	}
	ti, ok := n.transIdx[t]
	return ti, ok
}

func parseMarking(n *Net, text string) error {
	open := strings.IndexByte(text, '{')
	closeIdx := strings.LastIndexByte(text, '}')
	if open < 0 || closeIdx < open {
		if strings.TrimSpace(text) == "" {
			return fmt.Errorf("stg: missing .marking")
		}
		return fmt.Errorf("stg: malformed .marking %q", text)
	}
	body := text[open+1 : closeIdx]
	// Tokens: <t1,t2> for implicit places, names for explicit places.
	body = strings.ReplaceAll(body, "<", " <")
	body = strings.ReplaceAll(body, ">", "> ")
	for _, tok := range strings.Fields(body) {
		if strings.HasPrefix(tok, "<") {
			inner := strings.TrimSuffix(strings.TrimPrefix(tok, "<"), ">")
			parts := strings.Split(inner, ",")
			if len(parts) != 2 {
				return fmt.Errorf("stg: malformed implicit-place token %q", tok)
			}
			from, ok1 := parseKnownTransition(n, strings.TrimSpace(parts[0]))
			to, ok2 := parseKnownTransition(n, strings.TrimSpace(parts[1]))
			if !ok1 || !ok2 {
				return fmt.Errorf("stg: marking token %q references unknown transitions", tok)
			}
			pi := findImplicitPlace(n, from, to)
			if pi < 0 {
				return fmt.Errorf("stg: marking token %q has no matching arc", tok)
			}
			n.Initial[pi]++
			continue
		}
		pi, ok := n.placeIdx[tok]
		if !ok {
			return fmt.Errorf("stg: marking token %q is not a place", tok)
		}
		n.Initial[pi]++
	}
	return nil
}

func findImplicitPlace(n *Net, from, to int) int {
	want := fmt.Sprintf("<%s,%s>", n.Trans[from], n.Trans[to])
	for pi, p := range n.Places {
		if p.Name == want {
			return pi
		}
	}
	return -1
}

// String renders a summary.
func (n *Net) String() string {
	var sigs []string
	for s := range n.Signals {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return fmt.Sprintf("stg %s: %d signals %v, %d transitions, %d places",
		n.Name, len(sigs), sigs, len(n.Trans), len(n.Places))
}
