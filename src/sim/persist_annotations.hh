/**
 * @file
 * Persist-domain annotations: the machine-checked crash-state model.
 *
 * Every crash-correctness argument in this simulator rests on the
 * crash() paths resetting exactly the volatile state and preserving
 * exactly the persistent state. Each crash-relevant class declares
 * that boundary once, in its stateManifest(): every data member is
 * registered with its Kind and a snapshot closure (the DOLOS_MF_*
 * macros below). Two checks hold the declaration to account:
 *
 *  - tools/dolos_lint (check `manifest`) proves coverage statically:
 *    every data member of a class that defines stateManifest() is
 *    registered exactly once, every registered name is a real data
 *    member, and the crash-relevant core classes all define one.
 *
 *  - The power-loss differential (dolos-sim --verify-manifest,
 *    tests/unit/persist_manifest_test) proves the declared kinds
 *    against the actual crash() behavior: volatile fields must read
 *    back as their reset values after a power loss, persistent
 *    fields must round-trip unchanged.
 *
 * Classification rules (docs/static_analysis.md):
 *
 *  - Persistent: unchanged across crash(). On-chip persistent
 *    registers (PCR, root register, redo log), the NVM cell array,
 *    physical media-fault state, configuration constants, and
 *    simulation bookkeeping that deliberately survives power cycles
 *    (statistics, the monotonic simulated clock, monotonic ids).
 *
 *  - Volatile: reset by crash() to a deterministic reset value
 *    (cleared container, zero scalar, invalidated cache). Fields
 *    whose reset value is dynamic (e.g. a cursor reset to another
 *    field) register a custom predicate via DOLOS_MF_V_CHECK.
 */

#ifndef DOLOS_SIM_PERSIST_ANNOTATIONS_HH
#define DOLOS_SIM_PERSIST_ANNOTATIONS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace dolos::persist
{

/** Crash-state classification of one data member. */
enum class Kind
{
    Persistent, ///< survives crash() unchanged
    Volatile,   ///< reset by crash() to its reset value

    /**
     * Contents sit in the eADR persistence domain: on power failure
     * the holdup flush drains them to NVM through the security
     * pipeline, after which the field itself resets like a volatile
     * one. Mechanically the differential checks it as Volatile; the
     * distinct kind names the semantics in its diagnostics.
     */
    EadrFlushed,
};

inline const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Persistent: return "persistent";
      case Kind::Volatile: return "volatile";
      case Kind::EadrFlushed: return "eadr-flushed";
    }
    return "?";
}

// --- deterministic value serialization ------------------------------
//
// describe() renders any annotated field as a canonical string so
// that snapshots taken before and after a crash (or on two machines
// with the same configuration) compare with string equality.
// Unordered containers are sorted; byte blobs are hex. Types outside
// the built-in set provide an ADL hook:
//
//   friend void dolosDescribeValue(std::ostream &os, const T &v);

namespace detail
{

template <typename T>
concept ByteBlob = requires(const T &t) {
    { t.data() } -> std::convertible_to<const void *>;
    { t.size() } -> std::convertible_to<std::size_t>;
} && sizeof(*std::declval<const T &>().data()) == 1 &&
    !std::is_same_v<T, std::string>;

template <typename T>
concept MapLike = requires(const T &t) {
    typename T::key_type;
    typename T::mapped_type;
    t.begin();
    t.end();
};

template <typename T>
concept Sequence = requires(const T &t) {
    t.begin();
    t.end();
} && !MapLike<T> && !ByteBlob<T> && !std::is_same_v<T, std::string>;

template <typename T> struct IsOptional : std::false_type {};
template <typename T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <typename T> struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

inline void
put(std::ostream &os, const stats::Scalar &s)
{
    os << s.value();
}

inline void
put(std::ostream &os, const stats::Average &a)
{
    os << a.samples() << '/' << a.total();
}

inline void
put(std::ostream &os, const stats::Histogram &h)
{
    os << h.samples() << '/' << h.underflows() << '/' << h.overflows()
       << '/' << h.min() << '/' << h.max() << '/';
    for (const auto b : h.data())
        os << b << ';';
}

template <typename T>
void
put(std::ostream &os, const T &v)
{
    if constexpr (requires { dolosDescribeValue(os, v); }) {
        dolosDescribeValue(os, v);
    } else if constexpr (std::is_same_v<T, bool>) {
        os << (v ? "true" : "false");
    } else if constexpr (std::is_enum_v<T>) {
        os << std::uint64_t(v);
    } else if constexpr (std::is_integral_v<T>) {
        os << std::uint64_t(v);
    } else if constexpr (std::is_floating_point_v<T>) {
        os << v;
    } else if constexpr (std::is_same_v<T, std::string>) {
        os << '"' << v << '"';
    } else if constexpr (std::is_pointer_v<T>) {
        os << (v ? "&set" : "null");
    } else if constexpr (IsOptional<T>::value) {
        if (v)
            put(os, *v);
        else
            os << "nullopt";
    } else if constexpr (IsPair<T>::value) {
        os << '(';
        put(os, v.first);
        os << ',';
        put(os, v.second);
        os << ')';
    } else if constexpr (ByteBlob<T>) {
        static const char *hex = "0123456789abcdef";
        const auto *p =
            reinterpret_cast<const unsigned char *>(v.data());
        for (std::size_t i = 0; i < v.size(); ++i)
            os << hex[p[i] >> 4] << hex[p[i] & 0xf];
    } else if constexpr (MapLike<T>) {
        // Canonical order independent of the container's iteration
        // order: render each entry, then sort (key, value) pairs.
        std::vector<std::pair<std::uint64_t, std::string>> items;
        for (const auto &[k, val] : v) {
            std::ostringstream es;
            put(es, val);
            items.emplace_back(std::uint64_t(k), es.str());
        }
        std::sort(items.begin(), items.end());
        os << '{';
        for (const auto &[k, s] : items)
            os << k << ':' << s << ';';
        os << '}';
    } else if constexpr (Sequence<T>) {
        os << '[';
        for (const auto &e : v) {
            put(os, e);
            os << ';';
        }
        os << ']';
    } else {
        static_assert(!sizeof(T *),
                      "no describe() rule for this type; add a "
                      "dolosDescribeValue ADL hook");
    }
}

} // namespace detail

/** Canonical string rendering of one field's current value. */
template <typename T>
std::string
describe(const T &v)
{
    std::ostringstream os;
    detail::put(os, v);
    return os.str();
}

/**
 * Per-class, per-instance registry of annotated fields with live
 * snapshot closures. Built by <Class>::stateManifest(); consumed by
 * the power-loss differential check in src/verify/manifest_check.
 */
class StateManifest
{
  public:
    struct Field
    {
        std::string name;
        Kind kind = Kind::Persistent;

        /** Serialize the field's current value (empty if delegated). */
        std::function<std::string()> snapshot;

        /**
         * Optional post-crash predicate replacing the default check
         * (volatile: equals the pristine reset value; persistent:
         * round-trips). Used for dynamic reset values.
         */
        std::function<bool()> check;
        std::string rule; ///< human description of the custom check

        /**
         * The field is itself a state class (or owns one); its state
         * is verified through its own manifest, registered here only
         * so the lint can prove the class's member coverage.
         */
        bool delegated = false;
    };

    explicit StateManifest(std::string class_name,
                           std::string instance = {})
        : cls(std::move(class_name)), inst(std::move(instance))
    {}

    void
    add(std::string name, Kind kind,
        std::function<std::string()> snapshot)
    {
        checkUnique(name);
        fields_.push_back(
            {std::move(name), kind, std::move(snapshot), nullptr, "",
             false});
    }

    void
    addChecked(std::string name, Kind kind,
               std::function<std::string()> snapshot, std::string rule,
               std::function<bool()> check)
    {
        checkUnique(name);
        fields_.push_back({std::move(name), kind, std::move(snapshot),
                           std::move(check), std::move(rule), false});
    }

    void
    addDelegated(std::string name, Kind kind)
    {
        checkUnique(name);
        fields_.push_back(
            {std::move(name), kind, nullptr, nullptr, "", true});
    }

    const std::string &className() const { return cls; }
    const std::string &instance() const { return inst; }
    const std::vector<Field> &fields() const { return fields_; }

    /** Display label: Class.field or Class(instance).field. */
    std::string
    label(const Field &f) const
    {
        std::string s = cls;
        if (!inst.empty())
            s += "(" + inst + ")";
        return s + "." + f.name;
    }

  private:
    void
    checkUnique(const std::string &name) const
    {
        for (const auto &f : fields_)
            if (f.name == name)
                panic("StateManifest %s: field '%s' registered twice",
                      cls.c_str(), name.c_str());
    }

    std::string cls;
    std::string inst;
    std::vector<Field> fields_;
};

} // namespace dolos::persist

// --- manifest-builder macros ----------------------------------------
//
// Used inside <Class>::stateManifest() const. The field argument is
// stringified as the registered name; the `manifest` lint proves each
// name is a real data member (DOLOS_MF_CONST and DOLOS_MF_DELEGATED_*
// never evaluate the field, so the compiler cannot catch a typo there).

/** Persistent field with the default round-trip check. */
#define DOLOS_MF_P(m, field)                                          \
    (m).add(#field, ::dolos::persist::Kind::Persistent,               \
            [this] { return ::dolos::persist::describe(field); })

/** Volatile field with the default reset-value check. */
#define DOLOS_MF_V(m, field)                                          \
    (m).add(#field, ::dolos::persist::Kind::Volatile,                 \
            [this] { return ::dolos::persist::describe(field); })

/**
 * eADR-flushed field: drained to NVM by the holdup flush, then reset.
 * Differentially checked like a volatile field (reset-value check).
 */
#define DOLOS_MF_EADR_FLUSHED(m, field)                               \
    (m).add(#field, ::dolos::persist::Kind::EadrFlushed,              \
            [this] { return ::dolos::persist::describe(field); })

/** Persistent field with a custom post-crash predicate. */
#define DOLOS_MF_P_CHECK(m, field, rule, ...)                         \
    (m).addChecked(#field, ::dolos::persist::Kind::Persistent,        \
                   [this] { return ::dolos::persist::describe(field); }, \
                   (rule), __VA_ARGS__)

/** Volatile field with a custom post-crash predicate. */
#define DOLOS_MF_V_CHECK(m, field, rule, ...)                         \
    (m).addChecked(#field, ::dolos::persist::Kind::Volatile,          \
                   [this] { return ::dolos::persist::describe(field); }, \
                   (rule), __VA_ARGS__)

/**
 * Configuration constant / wiring reference: persistent by
 * construction, never mutated, not worth serializing.
 */
#define DOLOS_MF_CONST(m, field)                                      \
    (m).add(#field, ::dolos::persist::Kind::Persistent,               \
            [] { return std::string("<config-const>"); })

/** Persistent member whose state is checked via its own manifest. */
#define DOLOS_MF_DELEGATED_P(m, field)                                \
    (m).addDelegated(#field, ::dolos::persist::Kind::Persistent)

/** Volatile member whose state is checked via its own manifest. */
#define DOLOS_MF_DELEGATED_V(m, field)                                \
    (m).addDelegated(#field, ::dolos::persist::Kind::Volatile)

#endif // DOLOS_SIM_PERSIST_ANNOTATIONS_HH
