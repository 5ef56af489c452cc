// Tests for dns::DomainName.
#include <gtest/gtest.h>

#include "dns/errors.h"
#include "dns/name.h"

namespace dohperf::dns {
namespace {

TEST(DomainNameTest, ParseSimple) {
  const auto name = DomainName::parse("www.example.com");
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.label(0), "www");
  EXPECT_EQ(name.to_string(), "www.example.com");
}

TEST(DomainNameTest, TrailingDotIgnored) {
  EXPECT_EQ(DomainName::parse("a.com."), DomainName::parse("a.com"));
}

TEST(DomainNameTest, RootName) {
  const auto root = DomainName::parse(".");
  EXPECT_TRUE(root.empty());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root.wire_length(), 1u);
  EXPECT_EQ(DomainName::parse(""), root);
}

TEST(DomainNameTest, CaseInsensitiveEquality) {
  EXPECT_EQ(DomainName::parse("WWW.Example.COM"),
            DomainName::parse("www.example.com"));
  EXPECT_FALSE(DomainName::parse("a.com") == DomainName::parse("b.com"));
}

TEST(DomainNameTest, HashConsistentWithEquality) {
  DomainNameHash h;
  EXPECT_EQ(h(DomainName::parse("A.Com")), h(DomainName::parse("a.com")));
  EXPECT_NE(h(DomainName::parse("a.com")), h(DomainName::parse("b.com")));
}

TEST(DomainNameTest, RejectsEmptyLabel) {
  EXPECT_THROW(DomainName::parse("a..com"), NameError);
  EXPECT_THROW(DomainName::parse(".a.com"), NameError);
}

TEST(DomainNameTest, RejectsOverlongLabel) {
  const std::string label(64, 'x');
  EXPECT_THROW(DomainName::parse(label + ".com"), NameError);
  const std::string ok(63, 'x');
  EXPECT_NO_THROW(DomainName::parse(ok + ".com"));
}

TEST(DomainNameTest, RejectsOverlongName) {
  // Four 63-octet labels exceed the 255-octet wire limit.
  const std::string label(63, 'a');
  const std::string too_long =
      label + "." + label + "." + label + "." + label;
  EXPECT_THROW(DomainName::parse(too_long), NameError);
}

TEST(DomainNameTest, RejectsNonPrintable) {
  EXPECT_THROW(DomainName::parse(std::string("a\x01") + "b.com"), NameError);
}

TEST(DomainNameTest, WireLength) {
  // "a.com" -> 1 + 1 + 1 + 3 + 1 = 7 octets.
  EXPECT_EQ(DomainName::parse("a.com").wire_length(), 7u);
}

TEST(DomainNameTest, Subdomain) {
  const auto parent = DomainName::parse("a.com");
  EXPECT_TRUE(DomainName::parse("x.a.com").is_subdomain_of(parent));
  EXPECT_TRUE(DomainName::parse("x.y.a.com").is_subdomain_of(parent));
  EXPECT_TRUE(parent.is_subdomain_of(parent));
  EXPECT_FALSE(DomainName::parse("a.org").is_subdomain_of(parent));
  EXPECT_FALSE(DomainName::parse("aa.com").is_subdomain_of(parent));
  EXPECT_FALSE(parent.is_subdomain_of(DomainName::parse("x.a.com")));
}

TEST(DomainNameTest, SubdomainCaseInsensitive) {
  EXPECT_TRUE(DomainName::parse("X.A.COM").is_subdomain_of(
      DomainName::parse("a.com")));
}

TEST(DomainNameTest, EverythingIsUnderRoot) {
  EXPECT_TRUE(DomainName::parse("x.y.z").is_subdomain_of(DomainName{}));
}

TEST(DomainNameTest, Parent) {
  const auto name = DomainName::parse("x.a.com");
  EXPECT_EQ(name.parent(), DomainName::parse("a.com"));
  EXPECT_EQ(name.parent().parent().parent(), DomainName{});
}

TEST(DomainNameTest, WithSubdomain) {
  const auto child = DomainName::parse("a.com").with_subdomain("uuid-123");
  EXPECT_EQ(child.to_string(), "uuid-123.a.com");
  EXPECT_TRUE(child.is_subdomain_of(DomainName::parse("a.com")));
}

TEST(DomainNameTest, WithSubdomainValidatesLabel) {
  const auto base = DomainName::parse("a.com");
  EXPECT_THROW((void)base.with_subdomain(""), NameError);
  EXPECT_THROW((void)base.with_subdomain(std::string(64, 'y')), NameError);
  EXPECT_THROW((void)base.with_subdomain("has.dot"), NameError);
}

TEST(DomainNameTest, OrderingIsCaseInsensitive) {
  EXPECT_TRUE(DomainName::parse("a.com") < DomainName::parse("b.com"));
  EXPECT_FALSE(DomainName::parse("B.com") < DomainName::parse("a.com"));
  EXPECT_FALSE(DomainName::parse("a.com") < DomainName::parse("A.COM"));
}

TEST(DomainNameTest, FromLabels) {
  const auto name = DomainName::from_labels({"x", "a", "com"});
  EXPECT_EQ(name.to_string(), "x.a.com");
  EXPECT_THROW(DomainName::from_labels({"ok", ""}), NameError);
}

}  // namespace
}  // namespace dohperf::dns
