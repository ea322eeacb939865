// Package scenario is the adversarial correctness harness: a seeded,
// deterministic runner that drives real atomicstore clusters over the
// instrumented in-memory transport, injecting scripted faults
// (partitions, loss, delay, crash/restart) and ending every run in the
// linearizability checker plus counter-invariant asserts. It is the
// complement of internal/netsim: netsim models the paper's §2
// performance envelope with synthetic rounds, scenario attacks the
// production lane/session/train/WAL stack with real message flow.
//
// A scenario's fault schedule is written in a small line-oriented DSL:
//
//	# one event per line; '#' starts a comment
//	at 10ms partition 1,2 | 3
//	at 30ms heal
//	at 12ms crash 2            # also: crash random, crash all
//	at 40ms restart all
//	every 20ms until 80ms crash random
//	at 0ms drop 40% 1->2       # directed loss; 1<->2 is symmetric
//	at 0ms delay 2ms jitter 3ms ring
//	at 0ms drop 100% clients->1
//	at 50ms clear              # clear 1->2 removes just that rule
//
// Link endpoints are a server id, '*' (any process), 'clients' (any
// non-member), or 'servers' (any member); 'ring' desugars to
// servers<->servers, 'clients' (as a whole link) to clients<->*, and
// '*' to *<->*. Every construct parses back from its formatted form
// (ParseScript ∘ String is the identity), which is what makes a failed
// run's dump replayable byte-for-byte.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// ActionKind discriminates fault actions.
type ActionKind uint8

// Fault actions.
const (
	// ActPartition splits the servers into isolated groups: frames
	// between servers of different groups are dropped silently (no
	// failure-detector signal). Servers in no group talk to everyone.
	// Client traffic is unaffected; cut it with drop rules instead.
	ActPartition ActionKind = iota + 1
	// ActHeal removes the partition.
	ActHeal
	// ActCrash kills one server (or all, or a uniformly random live
	// one) through the cluster's crash hook: endpoint down, failure
	// detector fires, staged WAL records are lost. 'all' is one
	// simultaneous crash, so no server outlives another long enough to
	// serve in a spliced ring.
	ActCrash
	// ActRestart restarts crashed servers ('all' restarts every
	// crashed server in ascending id order), replaying their WAL when
	// the cluster is durable.
	ActRestart
	// ActDrop installs a probabilistic loss rule on matching links.
	ActDrop
	// ActDelay installs a delay (+ jitter, which doubles as
	// reordering) rule on matching links.
	ActDelay
	// ActClear removes loss/delay rules: all of them, or those whose
	// link spec matches exactly.
	ActClear
)

// Target selects the subject of a crash or restart.
type Target struct {
	Random bool
	All    bool
	ID     wire.ProcessID
}

func (t Target) String() string {
	switch {
	case t.Random:
		return "random"
	case t.All:
		return "all"
	default:
		return strconv.FormatUint(uint64(t.ID), 10)
	}
}

// EndSel selects one side of a link: a specific process, any process,
// any client (non-member), or any server (member).
type EndSel struct {
	Any     bool
	Clients bool
	Servers bool
	ID      wire.ProcessID
}

func (e EndSel) String() string {
	switch {
	case e.Any:
		return "*"
	case e.Clients:
		return "clients"
	case e.Servers:
		return "servers"
	default:
		return strconv.FormatUint(uint64(e.ID), 10)
	}
}

func (e EndSel) matches(id wire.ProcessID, member bool) bool {
	switch {
	case e.Any:
		return true
	case e.Clients:
		return !member
	case e.Servers:
		return member
	default:
		return e.ID == id
	}
}

// LinkSpec selects directed (or, with Sym, symmetric) links between
// two endpoint selectors.
type LinkSpec struct {
	From, To EndSel
	Sym      bool
}

func (l LinkSpec) String() string {
	arrow := "->"
	if l.Sym {
		arrow = "<->"
	}
	return l.From.String() + arrow + l.To.String()
}

func (l LinkSpec) matches(from, to wire.ProcessID, member func(wire.ProcessID) bool) bool {
	if l.From.matches(from, member(from)) && l.To.matches(to, member(to)) {
		return true
	}
	return l.Sym && l.From.matches(to, member(to)) && l.To.matches(from, member(from))
}

// Action is one fault action; which fields matter depends on Kind.
type Action struct {
	Kind    ActionKind
	Groups  [][]wire.ProcessID // ActPartition
	Target  Target             // ActCrash, ActRestart
	Pct     int                // ActDrop: 0..100
	Delay   time.Duration      // ActDelay
	Jitter  time.Duration      // ActDelay (0 = none)
	Link    LinkSpec           // ActDrop, ActDelay, ActClear (with HasLink)
	HasLink bool               // ActClear: true when a link was given
}

func (a Action) String() string {
	switch a.Kind {
	case ActPartition:
		groups := make([]string, len(a.Groups))
		for i, g := range a.Groups {
			ids := make([]string, len(g))
			for j, id := range g {
				ids[j] = strconv.FormatUint(uint64(id), 10)
			}
			groups[i] = strings.Join(ids, ",")
		}
		return "partition " + strings.Join(groups, " | ")
	case ActHeal:
		return "heal"
	case ActCrash:
		return "crash " + a.Target.String()
	case ActRestart:
		return "restart " + a.Target.String()
	case ActDrop:
		return fmt.Sprintf("drop %d%% %s", a.Pct, a.Link)
	case ActDelay:
		if a.Jitter > 0 {
			return fmt.Sprintf("delay %s jitter %s %s", a.Delay, a.Jitter, a.Link)
		}
		return fmt.Sprintf("delay %s %s", a.Delay, a.Link)
	case ActClear:
		if a.HasLink {
			return "clear " + a.Link.String()
		}
		return "clear"
	default:
		return fmt.Sprintf("?kind=%d", a.Kind)
	}
}

// Event schedules one action: a one-shot at virtual time At, or a
// repetition every Every until Until (0 = the scenario horizon).
type Event struct {
	At    time.Duration
	Every time.Duration
	Until time.Duration
	Act   Action
}

func (e Event) String() string {
	if e.Every > 0 {
		if e.Until > 0 {
			return fmt.Sprintf("every %s until %s %s", e.Every, e.Until, e.Act)
		}
		return fmt.Sprintf("every %s %s", e.Every, e.Act)
	}
	return fmt.Sprintf("at %s %s", e.At, e.Act)
}

// Script is a parsed fault schedule.
type Script struct {
	Events []Event
}

// String formats the script in the canonical DSL; ParseScript of the
// result yields an equal Script.
func (s *Script) String() string {
	var b strings.Builder
	for _, e := range s.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseScript parses the fault-script DSL; see the package comment for
// the grammar. Line numbers in errors are 1-based.
func ParseScript(src string) (*Script, error) {
	s := &Script{}
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		ev, err := parseEvent(line)
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", i+1, err)
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

func parseEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	var (
		ev   Event
		rest []string
		err  error
	)
	switch fields[0] {
	case "at":
		if len(fields) < 3 {
			return ev, fmt.Errorf("want 'at DURATION ACTION'")
		}
		if ev.At, err = parseDuration(fields[1]); err != nil {
			return ev, err
		}
		rest = fields[2:]
	case "every":
		if len(fields) < 3 {
			return ev, fmt.Errorf("want 'every DURATION [until DURATION] ACTION'")
		}
		if ev.Every, err = parseDuration(fields[1]); err != nil {
			return ev, err
		}
		if ev.Every <= 0 {
			return ev, fmt.Errorf("'every' period must be positive, got %s", ev.Every)
		}
		rest = fields[2:]
		if rest[0] == "until" {
			if len(rest) < 3 {
				return ev, fmt.Errorf("want 'until DURATION ACTION'")
			}
			if ev.Until, err = parseDuration(rest[1]); err != nil {
				return ev, err
			}
			if ev.Until < ev.Every {
				return ev, fmt.Errorf("'until %s' precedes the first 'every %s' firing", ev.Until, ev.Every)
			}
			rest = rest[2:]
		}
	default:
		return ev, fmt.Errorf("event must start with 'at' or 'every', got %q", fields[0])
	}
	ev.Act, err = parseAction(rest)
	return ev, err
}

func parseAction(fields []string) (Action, error) {
	var a Action
	var err error
	switch fields[0] {
	case "partition":
		a.Kind = ActPartition
		a.Groups, err = parseGroups(strings.Join(fields[1:], " "))
		return a, err
	case "heal":
		a.Kind = ActHeal
		if len(fields) != 1 {
			return a, fmt.Errorf("'heal' takes no arguments")
		}
		return a, nil
	case "crash", "restart":
		a.Kind = ActCrash
		if fields[0] == "restart" {
			a.Kind = ActRestart
		}
		if len(fields) != 2 {
			return a, fmt.Errorf("want '%s ID|random|all'", fields[0])
		}
		a.Target, err = parseTarget(fields[1])
		if a.Kind == ActRestart && a.Target.Random {
			return a, fmt.Errorf("'restart random' is not supported (restart an id or all)")
		}
		return a, err
	case "drop":
		a.Kind = ActDrop
		if len(fields) != 3 {
			return a, fmt.Errorf("want 'drop PCT%% LINK'")
		}
		pct, ok := strings.CutSuffix(fields[1], "%")
		if !ok {
			return a, fmt.Errorf("drop probability %q must end in %%", fields[1])
		}
		n, err := strconv.Atoi(pct)
		if err != nil || n < 0 || n > 100 {
			return a, fmt.Errorf("drop probability %q must be 0..100", fields[1])
		}
		a.Pct = n
		a.Link, err = parseLink(fields[2])
		return a, err
	case "delay":
		a.Kind = ActDelay
		rest := fields[1:]
		if len(rest) < 2 {
			return a, fmt.Errorf("want 'delay DURATION [jitter DURATION] LINK'")
		}
		if a.Delay, err = parseDuration(rest[0]); err != nil {
			return a, err
		}
		if a.Delay <= 0 {
			return a, fmt.Errorf("delay must be positive, got %s", a.Delay)
		}
		rest = rest[1:]
		if rest[0] == "jitter" {
			if len(rest) < 3 {
				return a, fmt.Errorf("want 'jitter DURATION LINK'")
			}
			if a.Jitter, err = parseDuration(rest[1]); err != nil {
				return a, err
			}
			if a.Jitter <= 0 {
				return a, fmt.Errorf("jitter must be positive, got %s", a.Jitter)
			}
			rest = rest[2:]
		}
		if len(rest) != 1 {
			return a, fmt.Errorf("want exactly one LINK, got %v", rest)
		}
		a.Link, err = parseLink(rest[0])
		return a, err
	case "clear":
		a.Kind = ActClear
		switch len(fields) {
		case 1:
			return a, nil
		case 2:
			a.HasLink = true
			a.Link, err = parseLink(fields[1])
			return a, err
		default:
			return a, fmt.Errorf("want 'clear [LINK]'")
		}
	default:
		return a, fmt.Errorf("unknown action %q", fields[0])
	}
}

func parseGroups(s string) ([][]wire.ProcessID, error) {
	parts := strings.Split(s, "|")
	if len(parts) < 2 {
		return nil, fmt.Errorf("partition needs at least two '|'-separated groups")
	}
	seen := make(map[wire.ProcessID]bool)
	groups := make([][]wire.ProcessID, 0, len(parts))
	for _, part := range parts {
		var group []wire.ProcessID
		for _, tok := range strings.FieldsFunc(part, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
			id, err := parseID(tok)
			if err != nil {
				return nil, err
			}
			if seen[id] {
				return nil, fmt.Errorf("server %d appears in two partition groups", id)
			}
			seen[id] = true
			group = append(group, id)
		}
		if len(group) == 0 {
			return nil, fmt.Errorf("empty partition group")
		}
		groups = append(groups, group)
	}
	return groups, nil
}

func parseTarget(s string) (Target, error) {
	switch s {
	case "random":
		return Target{Random: true}, nil
	case "all":
		return Target{All: true}, nil
	default:
		id, err := parseID(s)
		return Target{ID: id}, err
	}
}

func parseLink(s string) (LinkSpec, error) {
	// Shorthands first.
	switch s {
	case "ring":
		return LinkSpec{From: EndSel{Servers: true}, To: EndSel{Servers: true}, Sym: true}, nil
	case "clients":
		return LinkSpec{From: EndSel{Clients: true}, To: EndSel{Any: true}, Sym: true}, nil
	case "*":
		return LinkSpec{From: EndSel{Any: true}, To: EndSel{Any: true}, Sym: true}, nil
	}
	var l LinkSpec
	var from, to string
	if f, t, ok := strings.Cut(s, "<->"); ok {
		l.Sym, from, to = true, f, t
	} else if f, t, ok := strings.Cut(s, "->"); ok {
		from, to = f, t
	} else {
		return l, fmt.Errorf("link %q: want 'A->B', 'A<->B', 'ring', 'clients', or '*'", s)
	}
	var err error
	if l.From, err = parseEnd(from); err != nil {
		return l, err
	}
	l.To, err = parseEnd(to)
	return l, err
}

func parseEnd(s string) (EndSel, error) {
	switch s {
	case "*":
		return EndSel{Any: true}, nil
	case "clients":
		return EndSel{Clients: true}, nil
	case "servers":
		return EndSel{Servers: true}, nil
	default:
		id, err := parseID(s)
		return EndSel{ID: id}, err
	}
}

func parseID(s string) (wire.ProcessID, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("process id %q: want a positive integer", s)
	}
	return wire.ProcessID(n), nil
}

func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("duration %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %q must not be negative", s)
	}
	return d, nil
}
