package lint

import "testing"

// Each analyzer is exercised against its golden package under
// testdata/src: seeded violations must be reported (the `// want`
// annotations) and the pinned-good idioms must stay silent.

func TestTicketLeak(t *testing.T) { runGolden(t, TicketLeak, "ticketleak") }
func TestMustClose(t *testing.T)  { runGolden(t, MustClose, "mustclose") }
func TestMetricName(t *testing.T) { runGolden(t, MetricName, "metricname") }

// nilsafeobs has two sides: the guard discipline inside the obs
// package itself, and the no-direct-field-access rule for callers.
func TestNilSafeObsInPackage(t *testing.T) { runGolden(t, NilSafeObs, "obs") }
func TestNilSafeObsCallers(t *testing.T)   { runGolden(t, NilSafeObs, "nilsafeobs") }

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
	for _, want := range []string{"ticketleak", "mustclose", "nilsafeobs", "metricname"} {
		if !names[want] {
			t.Errorf("analyzer %q not registered", want)
		}
	}
}
