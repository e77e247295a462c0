package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"cdcs/internal/fleet"
)

// refuseTransport fails every request, so the gossip a membership change
// sends out goes nowhere and the fuzz harness dials no address.
type refuseTransport struct{}

func (refuseTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("gossip disabled in this test")
}

// wellFormed reports whether body is a membership message the handlers must
// accept: one JSON object of known fields and nothing after it, carrying an
// announcement URL that ValidMemberURL admits, or (with no URL) a gossip
// snapshot that ValidSnapshot admits.
func wellFormed(body string) bool {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var msg membershipMessage
	if dec.Decode(&msg) != nil {
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		return false
	}
	if fleet.NormalizeURL(msg.URL) != "" {
		return fleet.ValidMemberURL(msg.URL)
	}
	return fleet.ValidSnapshot(msg.Members, msg.Epoch)
}

// FuzzMembershipMessage drives POST /v1/join and /v1/leave with arbitrary
// bodies on a replica whose view is [a, b]. Neither handler may panic; a
// body that is not a well-formed announcement or gossip snapshot gets a
// 4xx and a well-formed one a 200; the epoch never goes down; gossip never
// empties the member list; and every member the view holds afterwards is
// an absolute http or https URL with a host.
func FuzzMembershipMessage(f *testing.F) {
	for _, body := range []string{
		``, `{}`, `{"bogus":1}`, `[1]`, `null`, `{"url":" "}`,
		`{"url":"http://c:3"}`, `{"url":"http://b:2/"}`, `{"url":"http://c:3"} {}`,
		`{"members":["http://a:1","http://c:3"],"epoch":7}`,
		`{"members":["http://z:9"]}`,
		`{"epoch":999}`, `{"members":[],"epoch":3}`, `{"members":[" ","/"],"epoch":3}`,
		`{"members":["http://a:1"],"epoch":18446744073709551615}`,
		`{"members":["http://a:1"],"epoch":18446744073709551614}`,
		`{"members":["http://a:1"],"epoch":-1}`,
		`{"url":"not a url"}`, `{"url":"ftp://c:3"}`, `{"url":"http://"}`, `{"url":"/c:3"}`,
		`{"members":["http://a:1","not a url"],"epoch":7}`,
	} {
		f.Add(false, body)
		f.Add(true, body)
	}
	f.Fuzz(func(t *testing.T, leave bool, body string) {
		s, err := New(Options{
			Advertise:          "http://a:1",
			Peers:              []string{"http://b:2"},
			FleetProbeInterval: -1,
			Workers:            1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.client = &http.Client{Transport: refuseTransport{}}
		path := "/v1/join"
		if leave {
			path = "/v1/leave"
		}
		_, before := s.membership.Snapshot()

		w := do(s.Handler(), http.MethodPost, path, body)

		members, after := s.membership.Snapshot()
		switch ok := wellFormed(body); {
		case ok && w.Code != http.StatusOK:
			t.Fatalf("well-formed body %q -> %d, want 200", body, w.Code)
		case !ok && (w.Code < 400 || w.Code > 499):
			t.Fatalf("malformed body %q -> %d, want a 4xx", body, w.Code)
		}
		if after < before {
			t.Fatalf("body %q moved the epoch back from %d to %d", body, before, after)
		}
		// An announcement removes at most one of the two members, so only
		// gossip could empty the list.
		if len(members) == 0 {
			t.Fatalf("body %q emptied the member list", body)
		}
		for _, m := range members {
			if !fleet.ValidMemberURL(m) {
				t.Fatalf("body %q left member %q in the view", body, m)
			}
		}
	})
}
