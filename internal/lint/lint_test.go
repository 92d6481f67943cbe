package lint

import "testing"

// Each analyzer is exercised against its golden package under
// testdata/src: seeded violations must be reported (the `// want`
// annotations) and the pinned-good idioms must stay silent.

func TestTicketLeak(t *testing.T) { runGolden(t, TicketLeak, "ticketleak") }
func TestMustClose(t *testing.T)  { runGolden(t, MustClose, "mustclose") }

func TestAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"ticketleak", "mustclose"} {
		if !names[want] {
			t.Errorf("analyzer %q not registered", want)
		}
	}
}
