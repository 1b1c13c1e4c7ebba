package ui

import (
	"fmt"
	"strings"

	"repro/internal/policy"
	"repro/internal/usbmon"
)

// PolicyCartoon is the Figure-4 interface: a cartoon of panels the user
// fills in ("who", "what", "when", "key") that compiles to a policy and is
// written onto a USB storage key; inserting the key at the router enacts
// it.
type PolicyCartoon struct {
	// Who are the governed devices, as "name=MAC" pairs for display.
	Who []CartoonDevice
	// What lists the permitted web-hosted services (DNS suffixes).
	What []string
	// WhenDays and WhenFrom/WhenUntil fill the schedule panel.
	WhenDays  []string
	WhenFrom  string
	WhenUntil string
	// KeyID names the physical key that mediates the policy.
	KeyID string
	// Name labels the policy.
	Name string
}

// CartoonDevice is one figure in the "who" panel.
type CartoonDevice struct {
	Label string
	MAC   string
}

// compile turns the cartoon into the policy the router enforces.
func (c *PolicyCartoon) compile() (*policy.Policy, error) {
	p := &policy.Policy{
		Name:         c.Name,
		AllowedSites: append([]string(nil), c.What...),
		Schedule: policy.Schedule{
			Days: append([]string(nil), c.WhenDays...),
			From: c.WhenFrom, Until: c.WhenUntil,
		},
		RequireKey: c.KeyID,
	}
	for _, d := range c.Who {
		p.Devices = append(p.Devices, d.MAC)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteToUSB lays the compiled policy out on a key directory with the
// filesystem layout the udev monitor recognises.
func (c *PolicyCartoon) WriteToUSB(dir string) error {
	p, err := c.compile()
	if err != nil {
		return err
	}
	return usbmon.WriteKey(dir, c.KeyID, p)
}

// Render draws the cartoon panels as text.
func (c *PolicyCartoon) Render() string {
	var sb strings.Builder
	sb.WriteString("+----------------- policy: " + c.Name + " -----------------+\n")
	panel := func(title string, lines []string) {
		fmt.Fprintf(&sb, "| %-8s |", title)
		if len(lines) == 0 {
			sb.WriteString(" (anything)")
		}
		sb.WriteString(" " + strings.Join(lines, ", ") + "\n")
	}
	var who []string
	for _, d := range c.Who {
		who = append(who, fmt.Sprintf("%s (%s)", d.Label, d.MAC))
	}
	panel("WHO", who)
	panel("WHAT", c.What)
	when := append([]string(nil), c.WhenDays...)
	if c.WhenFrom != "" || c.WhenUntil != "" {
		when = append(when, c.WhenFrom+"-"+c.WhenUntil)
	}
	panel("WHEN", when)
	panel("KEY", []string{c.KeyID})
	sb.WriteString("+" + strings.Repeat("-", 52) + "+\n")
	return sb.String()
}
