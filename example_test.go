package hitlist6_test

import (
	"fmt"
	"log"
	"strings"

	"hitlist6"
)

// printTrimmed prints a rendered report section line by line: the
// report's tables pad their cells, and an Output block holds no
// trailing spaces.
func printTrimmed(section string) {
	for _, line := range strings.Split(section, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// ExampleStudy_Backscan reproduces §4.2: probe NTP clients back right
// after they query, plus a random address in each client's /64 as an
// alias canary. Two thirds of clients answer, random IIDs answer only
// inside aliased networks, and those networks were invisible to the
// active hitlist — passive and active collection see different hosts.
func ExampleStudy_Backscan() {
	cfg := hitlist6.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Days = 45
	cfg.SliceDay = 30
	cfg.BackscanDays = 5

	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := study.Run(); err != nil {
		log.Fatal(err)
	}

	stats, err := study.Backscan()
	if err != nil {
		log.Fatal(err)
	}
	printTrimmed(hitlist6.RenderBackscan(stats, study))

	// The §4.2 punchline: NTP clients living inside aliased prefixes are
	// invisible to active measurement (their prefix is filtered as
	// aliased), yet the passive corpus holds them.
	inAliased := 0
	for _, o := range stats.Outcomes {
		if study.World.IsAliased(o.Client.P64()) {
			inAliased++
		}
	}
	fmt.Printf("NTP clients inside aliased /64s: %d ", inAliased)
	fmt.Println("(active campaigns filter these prefixes and can never list such hosts)")
	// Output:
	// Section 4.2: backscanning (paper: ~2/3 of clients respond; 3.5% of random probes respond)
	//   clients probed:   1,997
	//   client responses: 1,504 (75.3%)
	//   random probes:    1,997, responses 23 (1.15%)
	//   aliased /64s discovered: 2
	//   of which already in the Hitlist alias list: 2; newly discovered: 0 (paper: 98% known, plus novel)
	//
	// Figure 3: backscan entropy medians
	// Series    N     Median entropy
	// --------  ----  --------------
	// NTP Hit   1504  0.7889
	// NTP Miss  493   0.8007
	// Random    23    0.8007
	//
	// NTP clients inside aliased /64s: 23 (active campaigns filter these prefixes and can never list such hosts)
}

// ExampleStudy_Table1 reproduces Table 1: the passive NTP corpus beside
// the two active campaigns, an IPv6-Hitlist-style pipeline and CAIDA's
// routed /48 scan. The passive corpus is two orders of magnitude larger
// than either; it holds about two fifths of the Hitlist's addresses and
// none of CAIDA's.
func ExampleStudy_Table1() {
	cfg := hitlist6.DefaultConfig()
	cfg.Scale = 0.1

	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := study.Run(); err != nil {
		log.Fatal(err)
	}
	table1, err := study.Table1()
	if err != nil {
		log.Fatal(err)
	}
	printTrimmed(table1.Render())
	// Output:
	// Table 1: Comparison of IPv6 datasets
	// Dataset                       IPv6 Addresses  Common  ASNs  Common  /48s  Common  Avg/48
	// ----------------------------  --------------  ------  ----  ------  ----  ------  ------
	// NTP Pool (passive)            51,791          -       47    -       142   -       364.7
	// IPv6 Hitlist (simulated)      607             236     47    47      210   116     2.9
	// CAIDA routed /48 (simulated)  95              0       47    47      95    2       1.0
}

// ExampleStudy_Tracking reproduces §5.1 and §5.2: MAC addresses
// recovered from EUI-64 IIDs in the passive corpus, their manufacturers
// (Table 2), each identifier's movement class, and a Figure 7 timeline
// per privacy-relevant class. Tracking needs only the passive corpus.
func ExampleStudy_Tracking() {
	cfg := hitlist6.DefaultConfig()
	cfg.Scale = 0.1

	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := study.CollectPassive(); err != nil {
		log.Fatal(err)
	}
	tr, err := study.Tracking()
	if err != nil {
		log.Fatal(err)
	}
	printTrimmed(hitlist6.RenderTracking(tr, study.World.ASDB))
	// Output:
	// Section 5.1: EUI-64 prevalence
	//   EUI-64 addresses: 2,061 (expected from randomness: 1)
	//   unique embedded MACs: 55; unlisted share 69.1% (paper: 73.9%)
	//
	// Table 2: MACs by manufacturer
	// Manufacturer                         Count
	// -----------------------------------  -----
	// Unlisted                             38
	// AVM GmbH                             11
	// Amazon Technologies Inc.             4
	// Samsung Electronics Co.,Ltd          1
	// vivo Mobile Communication Co., Ltd.  1
	//
	// Section 5.2: tracking classes (trackable MACs: 46 = 83.6% of all; paper: 8.7%)
	// Class                       Count  Share   Paper
	// --------------------------  -----  ------  -----
	// Mostly static hosts         27     58.70%  86%
	// Likely prefix reassignment  12     26.09%  8%
	// Likely MAC reuse            5      10.87%  0.01%
	// Changing providers          0      0.00%   5%
	// Likely user movement        2      4.35%   0.44%
	//
	// Figure 7 exemplars:
	// MAC e0:28:6d:23:fd:75 (AVM GmbH) — Likely prefix reassignment
	//   2400:a:1::/48  25-Jan-22 – 30-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:a:3::/48  26-Jan-22 – 29-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:a:2::/48  27-Jan-22 – 28-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:a::/48  28-Jan-22 – 19-Aug-22  AS3320 Deutsche Telekom (DE)
	// MAC d0:ff:10:3c:fd:5b (Unlisted) — Likely MAC reuse
	//   2400:2:3::/48  25-Jan-22 – 23-Jul-22  AS4134 Chinanet (CN)
	//   2400:a:1::/48  25-Jan-22 – 30-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:a:3::/48  26-Jan-22 – 29-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:a:2::/48  27-Jan-22 – 27-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:a::/48  08-Feb-22 – 19-Aug-22  AS3320 Deutsche Telekom (DE)
	//   2400:2:1::/48  24-Feb-22 – 23-Jun-22  AS4134 Chinanet (CN)
	//   2400:2::/48  25-Apr-22 – 22-Aug-22  AS4134 Chinanet (CN)
	//   2400:d:1::/48  17-Aug-22 – 21-Aug-22  AS3215 Orange France (FR)
	//   2400:2:2::/48  23-Aug-22 – 30-Aug-22  AS4134 Chinanet (CN)
	//   2400:d:2::/48  23-Aug-22 – 30-Aug-22  AS3215 Orange France (FR)
	// MAC 08:5e:55:d5:34:7c (Unlisted) — Likely user movement
	//   2400:7:1::/48  30-Apr-22 – 24-May-22  AS7922 Comcast (US)
	//   2400:5::/48  01-May-22 – 06-Jul-22  AS21928 T-Mobile (US)
	//   2400:7:2::/48  25-May-22 – 06-Jul-22  AS7922 Comcast (US)
}

// ExampleStudy_Geolocation reproduces §5.3, the Rye–Beverly
// wired-to-wireless MAC offset linkage: wired MACs recovered from EUI-64
// IIDs are matched to geolocated WiFi BSSIDs at a per-OUI offset
// inferred from the data alone, placing home routers that merely asked
// a public server for the time. The only defense is to sever the link:
// random (RFC 4941/7217) IPv6 addresses, never EUI-64.
func ExampleStudy_Geolocation() {
	cfg := hitlist6.DefaultConfig()
	cfg.Scale = 0.1

	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := study.CollectPassive(); err != nil {
		log.Fatal(err)
	}
	geo, err := study.Geolocation(0)
	if err != nil {
		log.Fatal(err)
	}
	printTrimmed(hitlist6.RenderGeolocation(geo))
	// Output:
	// Section 5.3: geolocation via wired-wireless MAC offset linkage
	//   wired MACs in corpus: 55
	//   per-OUI offsets inferred: 1 (paper: 117 OUIs)
	//   devices geolocated: 3 (paper: 225,354; 75% in DE from AVM CPE)
	//     FR: 2 (66.7%)
	//     CN: 1 (33.3%)
}
